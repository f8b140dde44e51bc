// Package protocol declares the routing families the simulator can
// evaluate, as one table in name order — the protocol-side mirror of the
// attacker strategy table. The paper's pair (protectionless GCN-DAS and
// the 3-phase SLP-aware variant) are entries like any other; rival SLP
// families from the wider literature (sector phantom routing, fake-source
// backbones, tier-based intermediary routing) sit beside them and appear
// on every axis above: core.Config, experiment labels, the campaign
// protocol axis and the CLIs.
//
// A Protocol is one table entry: its name, result label, whether it runs
// the SLP search phase during setup, whether the data phase is the TDMA
// convergecast, whether SearchDistance parameterises it, and StartData,
// the one function that drives the family's own traffic. StartData builds
// whatever state the data phase needs from (env, params, seed) each time
// it is called, so a family keeps nothing between runs and the
// fresh-vs-reset no-drift invariant holds for it by construction.
//
// All families share the same control plane: neighbour discovery,
// dissemination and DAS slot assignment always run, so every family is
// compared on identical schedule-quality and control-overhead axes. They
// differ only in Phase 2 (SearchPhase) and in how DATA traffic flows
// (TDMAData vs StartData).
package protocol

import (
	"fmt"
	"slices"
	"time"

	"slpdas/internal/topo"
)

// Canonical family names, plus the campaign engine's historical alias.
const (
	// NameProtectionless is the baseline DAS of Figure 2.
	NameProtectionless = "protectionless"
	// NameSLPDAS is the paper's 3-phase SLP-aware DAS of Figures 2-4.
	NameSLPDAS = "slp-das"
	// NamePhantom is sector phantom routing (PSSPR): a directed random
	// walk to a phantom source, then shortest-path routing to the sink.
	NamePhantom = "phantom"
	// NameFakeSource is fake-source scheduling: a backbone away from the
	// real source whose nodes broadcast decoy DATA early in each period.
	NameFakeSource = "fake-source"
	// NameTier is tier-based intermediary routing (GAPs-style): each
	// message detours through a random node of a random sink-distance ring.
	NameTier = "tier"

	// AliasSLP is the campaign engine's historical name for the SLP-aware
	// protocol; it resolves to NameSLPDAS and stays valid on every axis so
	// campaign files older than the other families remain resumable.
	AliasSLP = "slp"
)

// Host is the slice of core.Network a family's StartData drives traffic
// through: the simulator clock and one frame-accounted DATA broadcast.
// SendData routes through the network's outgoing wire scratch, so family
// traffic is counted in message stats and audible to attackers exactly
// like node traffic.
type Host interface {
	// Now returns the simulation clock.
	Now() time.Duration
	// Schedule runs fn at the absolute simulation time at.
	Schedule(at time.Duration, fn func()) error
	// SendData broadcasts one DATA frame from the given node. Origin is
	// the wire-level provenance: the sink records a source delivery when
	// it hears origin == source, so decoy traffic must carry a different
	// origin.
	SendData(from, origin topo.NodeID, seq uint32, count uint16)
}

// Env is the immutable world a family routes over: the topology, the
// endpoints, and the sink's hop gradient (computed once at network wiring).
// SourceDist is derived lazily and cached — it is a pure function of the
// topology, so sharing it across runs cannot drift results.
type Env struct {
	Graph  *topo.Graph
	Sink   topo.NodeID
	Source topo.NodeID
	// SinkDist is the hop distance from the sink, by node.
	SinkDist []int

	srcDist []int
}

// SourceDist returns the hop distance from the source, by node, computing
// it on first use.
func (e *Env) SourceDist() []int {
	if e.srcDist == nil {
		e.srcDist = e.Graph.BFSFrom(e.Source)
	}
	return e.srcDist
}

// Params carries the per-run coordinates a family needs to schedule its
// data phase.
type Params struct {
	// SearchDistance is the SD knob, reused by families that take a
	// distance parameter (the phantom walk length).
	SearchDistance int
	// DataStart is when the data phase begins.
	DataStart time.Duration
	// SlotDuration is one TDMA slot; event-driven families space their
	// hops by it so per-hop airtime matches the convergecast.
	SlotDuration time.Duration
	// Period is the TDMA superframe duration; one source message per
	// period, as in the paper's evaluation.
	Period time.Duration
	// Periods is how many data periods the run drives (safety period plus
	// margin) — the number of source messages an event-driven family emits.
	Periods int
}

// Protocol describes one routing family: its static shape, consulted on
// the hot path as plain field reads, and the function that starts its
// data-phase traffic.
type Protocol struct {
	// Name is the canonical name (also the campaign axis value).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Label names the family in Results and experiment aggregates
	// (e.g. "protectionless-das"); it may differ from Name for history.
	Label string
	// UsesSearchDistance reports whether SearchDistance parameterises the
	// family (and so belongs in its experiment label).
	UsesSearchDistance bool
	// SearchPhase reports whether setup schedules the sink's Phase 2
	// search (NSearch/SRefine of Figures 3-4).
	SearchPhase bool
	// TDMAData reports whether the data phase is the TDMA convergecast
	// (every node broadcasts in its slot). Families without it drive all
	// DATA traffic themselves via StartData.
	TDMAData bool
	// StartData, when non-nil, schedules the family's own data-phase
	// traffic through h at the start of the data phase, drawing any
	// randomness from a stream of seed. It is nil for the paper's pair,
	// whose behaviour lives wholly in the slot schedule.
	StartData func(h Host, env *Env, p Params, seed uint64) error
}

// families is every routing family, declared in name order: Names and
// Protocols list it as it stands. The two DAS labels are pinned to the
// Result strings that predate the other families, which is what keeps
// fig5a_compat.golden and sweep_compat.golden byte-identical.
var families = [...]Protocol{
	{
		Name:      NameFakeSource,
		Summary:   "TDMA convergecast plus a decoy backbone away from the source broadcasting fake DATA each period",
		Label:     "fake-source",
		TDMAData:  true,
		StartData: startFakeSource,
	},
	{
		Name:               NamePhantom,
		Summary:            "sector phantom routing (PSSPR): directed random walk to a phantom source, then shortest path",
		Label:              "phantom",
		UsesSearchDistance: true,
		StartData:          startPhantom,
	},
	{
		Name:     NameProtectionless,
		Summary:  "baseline GCN data aggregation scheduling with no SLP protection (Figure 2)",
		Label:    "protectionless-das",
		TDMAData: true,
	},
	{
		Name:               NameSLPDAS,
		Summary:            "the paper's 3-phase SLP-aware DAS: search, slot refinement, decoy-first TDMA (Figures 2-4)",
		Label:              "slp-das",
		UsesSearchDistance: true,
		SearchPhase:        true,
		TDMAData:           true,
	},
	{
		Name:      NameTier,
		Summary:   "tier-based intermediary routing: each message detours via a random node of a random sink-distance tier",
		Label:     "tier",
		StartData: startTier,
	},
}

// ByName resolves a canonical name, or the AliasSLP alias, to its family.
func ByName(name string) (Protocol, error) {
	if name == AliasSLP {
		name = NameSLPDAS
	}
	for i := range families {
		if families[i].Name == name {
			return families[i], nil
		}
	}
	return Protocol{}, fmt.Errorf("protocol: unknown protocol %q (have %v)", name, Names())
}

// Protocols lists every family, sorted by name.
func Protocols() []Protocol { return slices.Clone(families[:]) }

// Names lists the canonical names, sorted. The alias is not listed; it
// resolves through ByName.
func Names() []string {
	out := make([]string, len(families))
	for i := range families {
		out[i] = families[i].Name
	}
	return out
}

// descend appends to route the shortest-path chain from cur towards the
// node dist was BFS'd from, excluding both cur and the destination (the
// destination receives; it does not forward). The next hop is the first
// strictly-closer neighbour in sorted order, so the chain is deterministic.
func descend(route []topo.NodeID, g *topo.Graph, dist []int, cur topo.NodeID) []topo.NodeID {
	for dist[cur] > 1 {
		next := topo.None
		for _, m := range g.Neighbors(cur) {
			if dist[m] == dist[cur]-1 {
				next = m
				break
			}
		}
		if next == topo.None {
			// Unreachable on a connected graph; bail rather than loop.
			return route
		}
		cur = next
		route = append(route, cur)
	}
	return route
}

// perPeriod schedules send at the start of each of the run's data
// periods, one source message per period, numbered by period index.
func perPeriod(h Host, p Params, send func(seq uint32)) error {
	for k := 0; k < p.Periods; k++ {
		seq := uint32(k)
		if err := h.Schedule(p.DataStart+time.Duration(k)*p.Period, func() { send(seq) }); err != nil {
			return err
		}
	}
	return nil
}

// scheduleRoute broadcasts one message along route, one transmitter per
// slot starting now: route[j] transmits at now + j·slot, carrying the
// given wire origin. The route slice is captured by the scheduled
// closures, so callers must hand over a fresh slice per message.
func scheduleRoute(h Host, route []topo.NodeID, origin topo.NodeID, seq uint32, slot time.Duration) error {
	now := h.Now()
	for j, from := range route {
		from := from
		hop := uint16(j + 1)
		if err := h.Schedule(now+time.Duration(j)*slot, func() {
			h.SendData(from, origin, seq, hop)
		}); err != nil {
			return err
		}
	}
	return nil
}
