package attacker

import (
	"testing"
	"time"

	"slpdas/internal/radio"
	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// obsFrom builds a minimal radio observation for direct Overhear tests.
func obsFrom(from topo.NodeID, at time.Duration) radio.Observation {
	return radio.Observation{From: from, At: at}
}

// TestRegistryListsAndResolves: the table is declared by hand, so the
// strictly increasing check is what keeps its names unique and in order.
func TestRegistryListsAndResolves(t *testing.T) {
	infos := Strategies()
	if len(infos) < 7 {
		t.Fatalf("table has %d strategies, want >= 7", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Errorf("Strategies not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
	for _, want := range []string{DefaultStrategy, "random-heard", "unvisited-first", "patient", "backtrack", "random-walk", "cautious"} {
		e, err := ByName(want)
		if err != nil {
			t.Errorf("ByName(%q): %v", want, err)
			continue
		}
		if e.Name != want {
			t.Errorf("ByName(%q).Name = %q", want, e.Name)
		}
		if e.New() == nil {
			t.Errorf("factory for %q built nil", want)
		}
	}
	if _, err := ByName("teleport"); err == nil {
		t.Error("unknown strategy resolved")
	}
}

func TestPatientNeedsCorroboration(t *testing.T) {
	p := Patient{}
	// Every origin heard once: no corroboration, stay.
	heard := []Heard{{From: 1}, {From: 2}, {From: 3}}
	if got := p.Decide(heard, nil, 9, nil); got != 9 {
		t.Errorf("uncorroborated Decide = %d, want stay at 9", got)
	}
	// Origin 2 heard twice: commit to it.
	heard = []Heard{{From: 1}, {From: 2}, {From: 2}}
	if got := p.Decide(heard, nil, 9, nil); got != 2 {
		t.Errorf("Decide = %d, want 2 (heard twice)", got)
	}
	// Tie on count: the earliest-heard corroborated origin wins.
	heard = []Heard{{From: 3}, {From: 1}, {From: 3}, {From: 1}}
	if got := p.Decide(heard, nil, 9, nil); got != 3 {
		t.Errorf("tied Decide = %d, want 3 (earliest)", got)
	}
	if got := p.Decide(nil, nil, 9, nil); got != 9 {
		t.Errorf("empty Decide = %d, want stay", got)
	}
}

func TestPatientIntegrationWithR(t *testing.T) {
	// R=3: the attacker hears 2, then 3, then 3 again — patient waits for
	// the full buffer and commits to the corroborated (and adjacent)
	// origin 3, not the first-heard 2.
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a, err := New(g, Params{R: 3, M: 1, Start: 4}, Patient{}, 0, 1, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a.ActivateAt(0)
	a.Overhear(obsFrom(2, time.Second))
	a.Overhear(obsFrom(3, 2*time.Second))
	if a.cur != 4 {
		t.Fatalf("moved before the R-buffer filled: at %d", a.cur)
	}
	a.Overhear(obsFrom(3, 3*time.Second))
	if a.cur != 3 {
		t.Errorf("patient attacker at %d, want 3", a.cur)
	}
}

func TestBacktrackRetreatsOnSilentPeriod(t *testing.T) {
	b := &Backtrack{}
	// Advance 4 -> 3 -> 2 via first-heard decisions.
	if got := b.Decide([]Heard{{From: 3}}, nil, 4, nil); got != 3 {
		t.Fatalf("Decide = %d, want 3", got)
	}
	if got := b.Decide([]Heard{{From: 2}}, nil, 3, nil); got != 2 {
		t.Fatalf("Decide = %d, want 2", got)
	}
	// A period with a move: no retreat.
	if got := b.PeriodEnd(true, 2); got != 2 {
		t.Errorf("PeriodEnd(moved) = %d, want stay at 2", got)
	}
	// Silent periods retreat along the trail: 2 -> 3 -> 4, then stall.
	if got := b.PeriodEnd(false, 2); got != 3 {
		t.Errorf("first retreat = %d, want 3", got)
	}
	if got := b.PeriodEnd(false, 3); got != 4 {
		t.Errorf("second retreat = %d, want 4", got)
	}
	if got := b.PeriodEnd(false, 4); got != 4 {
		t.Errorf("empty-trail retreat = %d, want stay at 4", got)
	}
}

func TestBacktrackAttackerWalksBackThroughNextPeriod(t *testing.T) {
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a, err := New(g, Params{R: 1, M: 1, Start: 4}, &Backtrack{}, 0, 1, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a.ActivateAt(0)
	// Hear node 3 directly (simulate the observation path via Overhear).
	a.Overhear(obsFrom(3, time.Second))
	if a.cur != 3 {
		t.Fatalf("attacker at %d, want 3", a.cur)
	}
	// A period that yielded a move: boundary does not retreat.
	a.NextPeriodAt(5 * time.Second)
	if a.cur != 3 {
		t.Fatalf("retreated after an active period: at %d", a.cur)
	}
	// A silent period: the boundary retreat returns to 4.
	a.NextPeriodAt(10 * time.Second)
	if a.cur != 4 {
		t.Errorf("attacker at %d after silent period, want 4 (backtracked)", a.cur)
	}
	wantPath := []topo.NodeID{4, 3, 4}
	path := a.Path()
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", path, wantPath)
	}
	for i := range wantPath {
		if path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", path, wantPath)
		}
	}
}

func TestRandomWalkStepsToANeighbour(t *testing.T) {
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	w := &RandomWalk{}
	w.Bind(g, 2)
	rng := xrand.NewNamed(1, "test")
	for i := 0; i < 50; i++ {
		got := w.Decide(nil, nil, 2, rng)
		if got != 1 && got != 3 {
			t.Fatalf("RandomWalk from 2 stepped to %d, want a neighbour", got)
		}
	}
	// End of the line: only one neighbour.
	for i := 0; i < 10; i++ {
		if got := w.Decide(nil, nil, 0, rng); got != 1 {
			t.Fatalf("RandomWalk from 0 stepped to %d, want 1", got)
		}
	}
}

func TestCautiousOnlyMovesOutward(t *testing.T) {
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	c := &Cautious{}
	c.Bind(g, 4) // hunting outward from node 4, source at 0
	// An origin closer to the start (backwards) is refused.
	if got := c.Decide([]Heard{{From: 4}}, nil, 3, nil); got != 3 {
		t.Errorf("cautious moved backwards to %d", got)
	}
	// An origin strictly farther from the start is taken.
	if got := c.Decide([]Heard{{From: 2}}, nil, 3, nil); got != 2 {
		t.Errorf("cautious refused the outward move: got %d", got)
	}
	// Lateral (same distance) origins are refused: first outward one wins.
	if got := c.Decide([]Heard{{From: 3}, {From: 2}}, nil, 3, nil); got != 2 {
		t.Errorf("cautious chose %d, want 2 (first strictly-outward origin)", got)
	}
	if got := c.Decide(nil, nil, 3, nil); got != 3 {
		t.Errorf("cautious moved on silence: got %d", got)
	}
}

func TestSharedHistoryPoolsAcrossAttackers(t *testing.T) {
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	shared := NewHistoryStore(4)
	mk := func(index int) *Attacker {
		a, err := New(g, Params{R: 1, M: 1, H: 4, Start: 4},
			UnvisitedFirst{}, 0, 1, index)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		a.ShareHistory(shared)
		a.ActivateAt(0)
		return a
	}
	a0, a1 := mk(0), mk(1)
	// a0 moves 4 -> 3: the shared window now holds the departure 4.
	a0.Overhear(obsFrom(3, time.Second))
	if a0.cur != 3 {
		t.Fatalf("a0 at %d, want 3", a0.cur)
	}
	h := a1.hist.buf
	if len(h) != 1 || h[0] != 4 {
		t.Fatalf("a1 sees shared history %v, want [4]", h)
	}
	// a1 hears 4 (visited by the team) then 3: unvisited-first takes 3.
	a1.Overhear(obsFrom(3, 2*time.Second))
	if a1.cur != 3 {
		t.Errorf("a1 at %d, want 3", a1.cur)
	}
	if h := shared.buf; len(h) != 2 || h[0] != 4 || h[1] != 4 {
		t.Errorf("shared window = %v, want [4 4] (both departures)", h)
	}
}

func TestHistoryStoreEvictsBeyondH(t *testing.T) {
	s := NewHistoryStore(2)
	for _, n := range []topo.NodeID{1, 2, 3} {
		s.Record(n)
	}
	if h := s.buf; len(h) != 2 || h[0] != 2 || h[1] != 3 {
		t.Errorf("window = %v, want [2 3]", h)
	}
	empty := NewHistoryStore(0)
	empty.Record(7)
	if h := empty.buf; len(h) != 0 {
		t.Errorf("memoryless store recorded %v", h)
	}
}
