//go:build !race

package core

import (
	"math"
	"testing"
	"time"

	"slpdas/internal/topo"
)

// TestHundredThousandNodeRunCompletes is the scale-path acceptance test: a
// 10⁵-node random geometric topology must build (spatial-hash construction)
// and run one full lifecycle — discovery, dissemination, TDMA data phase,
// attacker hunt — to completion, with walk recording off so the run's
// memory stays bounded. It runs under -short too: the scale path IS the
// feature being pinned.
func TestHundredThousandNodeRunCompletes(t *testing.T) {
	const n = 100_000
	// 2.2× the paper's grid spacing keeps the mean degree (~15) above the
	// RGG connectivity threshold ln(n) ≈ 11.5, so RandomGeometric accepts a
	// layout within its retry budget instead of rejecting sparse ones.
	side := math.Sqrt(n) * topo.DefaultSpacing
	g, err := topo.RandomGeometric(n, side, side, 2.2*topo.DefaultSpacing, 61)
	if err != nil {
		t.Fatalf("RandomGeometric: %v", err)
	}
	if g.Len() != n {
		t.Fatalf("built %d nodes, want %d", g.Len(), n)
	}

	// Sink nearest the centre (the campaign's RGG placement); source a
	// fixed 12 hops out, so δ = Cs·(Δss+1) bounds the data phase to ~15
	// periods whatever the hunt does. Every data period costs ~n·deg radio
	// events regardless of outcome, so the hop budget IS the run budget.
	sink := g.Nearest(topo.Point{X: side / 2, Y: side / 2})
	source := g.HopFarthest(sink, 12)
	if source == sink {
		t.Fatal("no source candidate within 12 hops of the sink")
	}

	cfg := Default()
	// Slots must cover the schedule's descent, which burns ~rank+1 slots
	// per hop (sibling rank under a degree-15 parent): ~130 hops of sink
	// eccentricity × mean descent ≈ thousands of slots, vs 100 in the
	// paper's grids. Nodes that bottom out would sit out every period.
	cfg.Slots = 4000
	// Shrink the slot so the TDMA period stays 20 s; 5 setup periods
	// (100 s) still clears the dissemination wave (~sinkEcc × 0.5 s).
	cfg.SlotPeriod = 5 * time.Millisecond
	cfg.MinimumSetupPeriods = 5
	// One HELLO round and one dissemination send per state change: every
	// broadcast fans out to ~15 neighbours, so Table I's resend budgets
	// (NDP 4, DT 5) would multiply setup traffic several-fold at this
	// scale without changing what settles.
	cfg.NeighbourDiscoveryPeriods = 1
	cfg.DisseminationTimeout = 1
	cfg.SafetyFactor = 1.1
	// Unit-decrement collision resolution re-floods the neighbourhood once
	// per slot of descent and is ~95% of all traffic at this depth; the
	// scale path uses the free-slot jump instead.
	cfg.FastCollisionResolve = true
	cfg.EventBudget = 200_000_000
	cfg.PathCap = PathRecordingOff

	start := time.Now()
	net, err := NewNetwork(g, sink, source, cfg, 61)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("n=%d Δss=%d periods=%.1f captured=%v wall=%v",
		n, res.DeltaSS, res.PeriodsRun, res.Captured, time.Since(start))

	if want := g.HopDistance(sink, source); res.DeltaSS != want {
		t.Errorf("DeltaSS = %d, want %d", res.DeltaSS, want)
	}
	if res.PeriodsRun <= 0 {
		t.Error("no data periods simulated")
	}
	if res.SourceDeliveries == 0 {
		t.Error("no source frame reached the sink")
	}
	for i, p := range res.AttackerPaths {
		if len(p) != 1 {
			t.Errorf("attacker %d recorded %d locations with recording off", i, len(p))
		}
	}
	if len(res.AttackerMoves) != 1 {
		t.Fatalf("AttackerMoves = %v, want one attacker", res.AttackerMoves)
	}
	if res.Captured && res.AttackerMoves[0] < res.DeltaSS {
		t.Errorf("captured in %d moves, below the %d-hop floor", res.AttackerMoves[0], res.DeltaSS)
	}
}
