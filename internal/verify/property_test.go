package verify

import (
	"testing"
	"testing/quick"

	"slpdas/internal/attacker"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
)

// replayTrace checks a counterexample against Algorithm 1's own validity
// rules: every step is an edge, every destination is among the R
// lowest-slot audible transmitters, and the period arithmetic reproduces
// the reported capture period within δ.
func replayTrace(g *topo.Graph, a *schedule.Assignment, p attacker.Params, trace []topo.NodeID, delta int) (int, bool) {
	if len(trace) < 2 || trace[0] != p.Start {
		return 0, false
	}
	period, moves := 0, 0
	for i := 0; i+1 < len(trace); i++ {
		cur, next := trace[i], trace[i+1]
		if !g.HasEdge(cur, next) {
			return 0, false
		}
		audible := Audible(g, a, cur, p.R)
		found := false
		for _, c := range audible {
			if c.Node == next {
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
		curAssigned := cur != a.Sink() && a.Assigned(cur)
		switch {
		case !curAssigned || a.Slot(cur) > a.Slot(next):
			period, moves = period+1, 1
		case moves < p.M:
			moves++
		default:
			return 0, false
		}
	}
	return period, period <= delta
}

// TestQuickCounterexamplesReplay: for random geometric graphs with greedy
// reference schedules, every counterexample VerifySchedule returns is a
// genuine attacker trace with the reported capture period.
func TestQuickCounterexamplesReplay(t *testing.T) {
	f := func(seed uint64, rRaw, mRaw uint8) bool {
		g, err := topo.RandomGeometric(25, 35, 35, 12, seed)
		if err != nil {
			return true // no connected layout found; skip
		}
		sink := topo.NodeID(0)
		a, err := schedule.GreedyDAS(g, sink, 300)
		if err != nil {
			return true // slot space insufficient; skip
		}
		// Source: the node farthest from the sink.
		dist := g.BFSFrom(sink)
		source := topo.NodeID(1)
		for n := range dist {
			if dist[n] > dist[source] {
				source = topo.NodeID(n)
			}
		}
		p := attacker.Params{R: int(rRaw%3) + 1, M: int(mRaw%2) + 1, Start: sink}
		delta := 3 * dist[source]
		res, err := VerifySchedule(g, a, p, AnyHeardD, delta, source, Options{})
		if err != nil {
			return false
		}
		if res.SLPAware {
			return true
		}
		period, ok := replayTrace(g, a, p, res.Counterexample, delta)
		return ok && period == res.CapturePeriod &&
			res.Counterexample[len(res.Counterexample)-1] == source
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinimalityNeverBeatsHopDistance: no counterexample can capture
// in fewer periods than the attacker can physically walk.
func TestQuickMinimalityNeverBeatsHopDistance(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := topo.RandomGeometric(20, 30, 30, 11, seed)
		if err != nil {
			return true
		}
		sink := topo.NodeID(0)
		a, err := schedule.GreedyDAS(g, sink, 300)
		if err != nil {
			return true
		}
		dist := g.BFSFrom(sink)
		source := topo.NodeID(1)
		for n := range dist {
			if dist[n] > dist[source] {
				source = topo.NodeID(n)
			}
		}
		p := attacker.Params{R: 2, M: 1, Start: sink}
		res, err := VerifySchedule(g, a, p, AnyHeardD, 4*dist[source], source, Options{})
		if err != nil {
			return false
		}
		if res.SLPAware {
			return true
		}
		// With M=1, every move costs at least... a move to a later slot
		// stays within the period, so the bound is period >= 1 (at least
		// the first move crosses into period 1 from the slotless sink) and
		// the trace length must be at least the hop distance.
		return res.CapturePeriod >= 1 && len(res.Counterexample)-1 >= dist[source]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
