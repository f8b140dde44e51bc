package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"slpdas/internal/radio"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// Result captures everything one simulated run produced.
type Result struct {
	Protocol string
	Seed     uint64
	Nodes    int

	// Privacy outcome.
	Captured       bool
	CaptureAt      time.Duration // absolute simulation time
	CapturePeriods float64       // periods after source activation
	SafetyPeriod   float64       // δ in periods
	DeltaSS        int           // sink–source hop distance
	AttackerPath   []topo.NodeID

	// Attacker-team coordinates: the strategy name, the number of
	// eavesdroppers, which one captured (-1 = none) and every walk.
	// AttackerPath/AttackerPaths honour Config.PathCap (full by default);
	// AttackerMoves always carries each eavesdropper's full relocation
	// count, so walk lengths survive even with recording capped or off.
	Strategy      string
	Attackers     int
	CaptureBy     int
	AttackerPaths [][]topo.NodeID
	AttackerMoves []int

	// Schedule quality at data start.
	Assignment          *schedule.Assignment
	WeakViolations      int
	StrongViolations    int
	CollisionViolations int
	RangeViolations     int

	// Protocol health.
	SearchSent   bool
	ChangedNodes int
	DecodeErrors uint64

	// Traffic accounting.
	Messages   map[wire.Type]MsgStats
	RadioStats radio.Stats

	// Convergecast delivery (source → sink).
	SourceDeliveries   int
	DeliveryCount      int
	DeliveryLatencySum int

	DataStart time.Duration
	// PeriodsRun counts TDMA data periods actually simulated (runs end
	// early on capture, so raw DATA counts are not comparable across
	// runs; divide by this).
	PeriodsRun float64

	// --- Fault-injection degradation (Config.Faults runs) ---

	// NodesFailed and NodesRecovered count crash and rejoin events that
	// actually fired. Both zero for fault-free runs.
	NodesFailed    int
	NodesRecovered int
	// RepairPeriods is the schedule self-healing time: from the first
	// fault to the last slot change anywhere in the network, in TDMA
	// periods. -1 when no repair activity was observed — always -1 for
	// fault-free runs, so aggregation can exclude them like latency.
	RepairPeriods float64
	// Delivery ratios: unique source sequence numbers reaching the sink
	// divided by the data periods in each window, split at the fault
	// window [first event, last event]. All zero for fault-free runs.
	DeliveryBefore float64
	DeliveryDuring float64
	DeliveryAfter  float64
	// PartitionDetected reports that at the end of the run the source
	// could not reach the sink: one of them dead, or no path of alive
	// nodes over intact links between them. The run still terminates
	// cleanly with this verdict instead of erroring or spinning.
	PartitionDetected bool

	// --- Per-node energy accounting (Config.Energy runs) ---

	// EnergyTotalMJ, EnergyMaxMJ and EnergyMeanMJ summarise cumulative
	// per-node spend in mJ: network total, hottest node, per-node mean.
	// All zero for energy-off runs.
	EnergyTotalMJ float64
	EnergyMaxMJ   float64
	EnergyMeanMJ  float64
	// EnergyDeaths counts nodes that crash-stopped on battery depletion.
	EnergyDeaths int
	// FirstDeathPeriod is when the first depletion death happened, in TDMA
	// periods after source activation (negative: during setup). -1 when no
	// node depleted — always -1 for energy-off runs.
	FirstDeathPeriod float64
	// LifetimePeriods is the network lifetime: periods after source
	// activation until a depletion death first partitioned source from
	// sink, or the full periods run when none did. -1 for energy-off runs.
	LifetimePeriods float64
}

// DataMessagesPerPeriod normalises data-plane traffic by simulated
// periods; by design both protocols send one frame per node per period.
func (r *Result) DataMessagesPerPeriod() float64 {
	if r.PeriodsRun <= 0 {
		return 0
	}
	return float64(r.Messages[wire.TypeData].Count) / r.PeriodsRun
}

// ControlMessages sums non-DATA frames sent — the protocol's overhead.
func (r *Result) ControlMessages() uint64 {
	var total uint64
	//lint:ignore mapiter uint sum commutes over any order
	for t, s := range r.Messages {
		if t != wire.TypeData {
			total += s.Count
		}
	}
	return total
}

// ControlBytes sums non-DATA bytes sent.
func (r *Result) ControlBytes() uint64 {
	var total uint64
	//lint:ignore mapiter uint sum commutes over any order
	for t, s := range r.Messages {
		if t != wire.TypeData {
			total += s.Bytes
		}
	}
	return total
}

// TotalMessages sums every frame sent.
func (r *Result) TotalMessages() uint64 {
	var total uint64
	//lint:ignore mapiter uint sum commutes over any order
	for _, s := range r.Messages {
		total += s.Count
	}
	return total
}

// MeanDeliveryLatency returns the average source→sink latency in periods,
// or -1 when nothing was delivered.
func (r *Result) MeanDeliveryLatency() float64 {
	if r.DeliveryCount == 0 {
		return -1
	}
	return float64(r.DeliveryLatencySum) / float64(r.DeliveryCount)
}

// ScheduleValid reports whether the settled schedule is a collision-free
// weak DAS with in-range slots.
func (r *Result) ScheduleValid() bool {
	return r.WeakViolations == 0 && r.CollisionViolations == 0 && r.RangeViolations == 0
}

// String renders a one-run report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d nodes=%d Δss=%d δ=%.1f periods\n", r.Protocol, r.Seed, r.Nodes, r.DeltaSS, r.SafetyPeriod)
	if r.Captured {
		fmt.Fprintf(&b, "  captured after %.2f periods (t=%v)\n", r.CapturePeriods, r.CaptureAt)
	} else {
		fmt.Fprintf(&b, "  not captured within the safety period\n")
	}
	fmt.Fprintf(&b, "  schedule: weak=%d strong=%d collisions=%d range=%d changed=%d\n",
		r.WeakViolations, r.StrongViolations, r.CollisionViolations, r.RangeViolations, r.ChangedNodes)
	types := make([]wire.Type, 0, len(r.Messages))
	for t := range r.Messages {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		s := r.Messages[t]
		fmt.Fprintf(&b, "  %-7s %7d msgs %9d bytes\n", t, s.Count, s.Bytes)
	}
	fmt.Fprintf(&b, "  source deliveries: %d (mean latency %.2f periods)\n", r.SourceDeliveries, r.MeanDeliveryLatency())
	return b.String()
}
