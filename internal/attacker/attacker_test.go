package attacker

import (
	"math/rand/v2"
	"testing"
	"time"

	"slpdas/internal/des"
	"slpdas/internal/radio"
	"slpdas/internal/topo"
)

// lineWorld builds a 0-1-2-3-4 line with a medium and an attacker at node 4
// hunting node 0.
func lineWorld(t *testing.T, params Params, d Strategy) (*des.Simulator, *topo.Graph, *radio.Medium, *Attacker) {
	t.Helper()
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	m := radio.New(sim, g, 1)
	params.Start = 4
	a, err := New(g, params, d, 0, 1, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.AddObserver(a)
	return sim, g, m, a
}

// decideFunc is a Strategy made of one Decide function.
type decideFunc func(heard []Heard, history []topo.NodeID, cur topo.NodeID, rng *rand.Rand) topo.NodeID

func (f decideFunc) Decide(heard []Heard, history []topo.NodeID, cur topo.NodeID, rng *rand.Rand) topo.NodeID {
	return f(heard, history, cur, rng)
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{{R: 0, M: 1}, {R: 1, M: 0}, {R: 1, M: 1, H: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("params %+v validated", bad)
		}
	}
	if err := (Params{R: 1, H: 0, M: 1}).Validate(); err != nil {
		t.Errorf("the paper's (1,0,1) params invalid: %v", err)
	}
}

func TestNewRejectsInvalidNodes(t *testing.T) {
	g, err := topo.Line(3, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	if _, err := New(g, Params{R: 1, M: 1, Start: 99}, nil, 0, 1, 0); err == nil {
		t.Error("invalid start accepted")
	}
	if _, err := New(g, Params{R: 1, M: 1, Start: 0}, nil, 99, 1, 0); err == nil {
		t.Error("invalid source accepted")
	}
}

func TestInactiveAttackerIgnoresTraffic(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, FirstHeard{})
	sim.ScheduleAfter(0, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 4 {
		t.Errorf("inactive attacker moved to %d", a.cur)
	}
}

func TestFollowsFirstHeardTransmission(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, FirstHeard{})
	a.ActivateAt(0)
	// In one period node 3 transmits first (it is audible from 4).
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 3 {
		t.Errorf("attacker at %d, want 3", a.cur)
	}
}

func TestOneMovePerPeriod(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, FirstHeard{})
	a.ActivateAt(0)
	// Two audible transmissions in the same period: only the first counts.
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	sim.ScheduleAfter(2*time.Second, func() { m.Broadcast(2, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 3 {
		t.Errorf("attacker at %d, want 3 (M=1 exhausted)", a.cur)
	}
	// After a period reset it may move again.
	a.NextPeriodAt(sim.Now())
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(2, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 2 {
		t.Errorf("attacker at %d after period reset, want 2", a.cur)
	}
}

func TestChaseEndsInCapture(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, FirstHeard{})
	a.ActivateAt(0)
	var capturedAt time.Duration
	a.OnCapture = func(at time.Duration) { capturedAt = at }
	// Period p: node (4-p) transmits; the attacker walks down the line.
	for p := 0; p < 4; p++ {
		p := p
		at := time.Duration(p+1) * 5 * time.Second
		if _, err := sim.Schedule(at, func() {
			a.NextPeriodAt(sim.Now())
			m.Broadcast(topo.NodeID(3-p), []byte{1})
		}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	captured, at := a.Captured()
	if !captured {
		t.Fatal("attacker did not capture")
	}
	if at != capturedAt || capturedAt == 0 {
		t.Errorf("capture times inconsistent: %v vs %v", at, capturedAt)
	}
	wantPath := []topo.NodeID{4, 3, 2, 1, 0}
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

func TestRBoundsMessageBuffer(t *testing.T) {
	// R=2: the attacker decides only after hearing two messages.
	sim, _, m, a := lineWorld(t, Params{R: 2, M: 1}, FirstHeard{})
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 4 {
		t.Errorf("moved after one message with R=2")
	}
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 3 {
		t.Errorf("attacker at %d, want 3 after R messages", a.cur)
	}
}

func TestPeriodResetDiscardsPartialBuffer(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 2, M: 1}, FirstHeard{})
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	sim.ScheduleAfter(2*time.Second, func() { a.NextPeriodAt(sim.Now()) }) // discard
	sim.ScheduleAfter(3*time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 4 {
		t.Errorf("attacker moved on a stale buffer: at %d", a.cur)
	}
}

func TestHistoryRing(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1, H: 2}, FirstHeard{})
	a.ActivateAt(0)
	for p := 0; p < 3; p++ {
		p := p
		at := time.Duration(p+1) * time.Second
		if _, err := sim.Schedule(at, func() {
			a.NextPeriodAt(sim.Now())
			m.Broadcast(topo.NodeID(3-p), []byte{1})
		}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Visited 4 -> 3 -> 2 -> 1; history keeps the last H=2 departures.
	h := a.hist.buf
	if len(h) != 2 || h[0] != 3 || h[1] != 2 {
		t.Errorf("history = %v, want [3 2]", h)
	}
}

func TestHistoryNotPollutedByStaysAndRejectedMoves(t *testing.T) {
	// Regression: decideMove used to append cur to the H-window on every
	// decision, including "stay" and edge-rejected moves, flushing genuine
	// visit history out of small windows. With H=2, a real move followed by
	// two stays and one teleport attempt must leave the window holding only
	// the genuinely departed location.
	calls := 0
	flaky := func(heard []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID {
		calls++
		switch calls {
		case 1:
			return heard[0].From // real move 4 -> 3
		case 2, 3:
			return cur // stay twice
		default:
			return 0 // two hops away: edge-rejected
		}
	}
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1, H: 2}, decideFunc(flaky))
	a.ActivateAt(0)
	for p := 0; p < 4; p++ {
		at := time.Duration(p+1) * time.Second
		if _, err := sim.Schedule(at, func() {
			a.NextPeriodAt(sim.Now())
			m.Broadcast(3, []byte{1})
		}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 4 {
		t.Fatalf("decision called %d times, want 4", calls)
	}
	if a.cur != 3 {
		t.Fatalf("attacker at %d, want 3", a.cur)
	}
	h := a.hist.buf
	if len(h) != 1 || h[0] != 4 {
		t.Errorf("history = %v, want [4] (only the genuine departure)", h)
	}
}

func TestMMovesWithinOnePeriod(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 2}, FirstHeard{})
	a.ActivateAt(0)
	// Same period: 3 transmits, then (after the attacker moved to 3) 2.
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	sim.ScheduleAfter(2*time.Second, func() { m.Broadcast(2, []byte{1}) })
	sim.ScheduleAfter(3*time.Second, func() { m.Broadcast(1, []byte{1}) }) // M exhausted
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 2 {
		t.Errorf("attacker at %d, want 2 (two moves, then budget spent)", a.cur)
	}
}

func TestCannotTeleportToUnheardNeighbour(t *testing.T) {
	// Node 1 is two hops from the attacker at 4 — not reachable in one
	// move. Even if a hostile strategy returns it, the attacker must not
	// teleport.
	teleport := func([]Heard, []topo.NodeID, topo.NodeID, *rand.Rand) topo.NodeID { return 1 }
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, decideFunc(teleport))
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 4 {
		t.Errorf("attacker teleported to %d", a.cur)
	}
}

func TestStayingConsumesMove(t *testing.T) {
	stay := func(heard []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID { return cur }
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, decideFunc(stay))
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	sim.ScheduleAfter(2*time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 4 {
		t.Errorf("attacker at %d, want 4 (stayed)", a.cur)
	}
	if len(a.Path()) != 1 {
		t.Errorf("path = %v, want only the start", a.Path())
	}
}

func TestStartAtSourceCapturedOnActivation(t *testing.T) {
	// Regression: capture used to be detected only inside decideMove after
	// a relocation, so an attacker whose start node IS the source was
	// never marked captured — it had no reason to move. Activation must
	// detect the standing capture and stamp it with the activation time.
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a, err := New(g, Params{R: 1, M: 1, Start: 0}, FirstHeard{}, 0, 1, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var capturedAt time.Duration
	fired := 0
	a.OnCapture = func(at time.Duration) { capturedAt = at; fired++ }
	if captured, _ := a.Captured(); captured {
		t.Fatal("captured before activation")
	}
	a.ActivateAt(7 * time.Second)
	captured, at := a.Captured()
	if !captured {
		t.Fatal("attacker starting on the source not captured at activation")
	}
	if at != 7*time.Second || capturedAt != 7*time.Second || fired != 1 {
		t.Errorf("capture at %v (callback %v, fired %d), want 7s once", at, capturedAt, fired)
	}
	if len(a.Path()) != 1 {
		t.Errorf("path = %v, want only the start", a.Path())
	}
}

func TestStartAtSourceStayDecisionStaysCaptured(t *testing.T) {
	// The stay-in-place decision must not disturb a standing capture: the
	// attacker is done hunting and ignores further traffic.
	stay := func(_ []Heard, _ []topo.NodeID, cur topo.NodeID, _ *rand.Rand) topo.NodeID { return cur }
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	m := radio.New(sim, g, 1)
	a, err := New(g, Params{R: 1, M: 1, Start: 0}, decideFunc(stay), 0, 1, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.AddObserver(a)
	fired := 0
	a.OnCapture = func(time.Duration) { fired++ }
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(1, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if captured, _ := a.Captured(); !captured || fired != 1 {
		t.Errorf("captured=%v fired=%d, want captured exactly once", captured, fired)
	}
	if a.cur != 0 || len(a.Path()) != 1 {
		t.Errorf("attacker moved after capture: at %d path %v", a.cur, a.Path())
	}
}

func TestRandomHeardStaysWithinHeardSet(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 1}, RandomHeard{})
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.cur != 3 {
		t.Errorf("attacker at %d, want 3 (only heard origin)", a.cur)
	}
}

func TestUnvisitedFirstAvoidsHistory(t *testing.T) {
	history := []topo.NodeID{3}
	heard := []Heard{{From: 3}, {From: 2}}
	if got := (UnvisitedFirst{}).Decide(heard, history, 4, nil); got != 2 {
		t.Errorf("UnvisitedFirst = %d, want 2", got)
	}
	// All visited: fall back to first heard.
	if got := (UnvisitedFirst{}).Decide(heard, []topo.NodeID{3, 2}, 4, nil); got != 3 {
		t.Errorf("UnvisitedFirst fallback = %d, want 3", got)
	}
	// Empty heard: stay.
	if got := (UnvisitedFirst{}).Decide(nil, nil, 4, nil); got != 4 {
		t.Errorf("UnvisitedFirst empty = %d, want 4", got)
	}
	if got := (FirstHeard{}).Decide(nil, nil, 4, nil); got != 4 {
		t.Errorf("FirstHeard empty = %d, want 4", got)
	}
}

func TestUnvisitedFirstEdgeCases(t *testing.T) {
	// Fallback returning cur — a wasted move: every heard origin is either
	// visited or the current location itself, and the first heard origin
	// IS cur, so the decision burns the move budget standing still.
	heard := []Heard{{From: 4}, {From: 3}}
	if got := (UnvisitedFirst{}).Decide(heard, []topo.NodeID{3}, 4, nil); got != 4 {
		t.Errorf("wasted-move fallback = %d, want cur 4", got)
	}
	// Every heard origin is in the history: the fallback takes the first
	// heard origin even though it was visited (re-entering is better than
	// freezing forever).
	heard = []Heard{{From: 2}, {From: 3}}
	if got := (UnvisitedFirst{}).Decide(heard, []topo.NodeID{2, 3}, 4, nil); got != 2 {
		t.Errorf("all-visited fallback = %d, want 2 (first heard)", got)
	}
	// History containing the current node must not stop the attacker from
	// taking a genuinely unvisited origin.
	heard = []Heard{{From: 4}, {From: 1}}
	if got := (UnvisitedFirst{}).Decide(heard, []topo.NodeID{4}, 4, nil); got != 1 {
		t.Errorf("cur-in-history decision = %d, want 1", got)
	}
	// An unvisited origin equal to cur is skipped in favour of a later
	// unvisited one — moving to where you stand extracts nothing.
	heard = []Heard{{From: 4}, {From: 2}}
	if got := (UnvisitedFirst{}).Decide(heard, nil, 4, nil); got != 2 {
		t.Errorf("origin-equals-cur decision = %d, want 2", got)
	}
}

func TestPathCapBoundsRecordingNotTheHunt(t *testing.T) {
	// The capped chase must behave identically to the uncapped one —
	// same capture, same move count, same H-window — with only the
	// recorded walk truncated.
	chase := func(cap int) *Attacker {
		sim, _, m, a := lineWorld(t, Params{R: 1, M: 1, H: 2}, FirstHeard{})
		if cap != 0 {
			a.SetPathCap(cap)
		}
		a.ActivateAt(0)
		for p := 0; p < 4; p++ {
			p := p
			at := time.Duration(p+1) * 5 * time.Second
			if _, err := sim.Schedule(at, func() {
				a.NextPeriodAt(sim.Now())
				m.Broadcast(topo.NodeID(3-p), []byte{1})
			}); err != nil {
				t.Fatalf("Schedule: %v", err)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return a
	}
	full := chase(0)
	if captured, _ := full.Captured(); !captured || full.Moves() != 4 {
		t.Fatalf("uncapped chase: captured=%v moves=%d, want capture in 4 moves",
			full.captured, full.Moves())
	}
	for _, cap := range []int{1, 2, 3, -1} {
		a := chase(cap)
		captured, at := a.Captured()
		fullCaptured, fullAt := full.Captured()
		if captured != fullCaptured || at != fullAt {
			t.Errorf("cap %d changed the capture: %v@%v vs %v@%v", cap, captured, at, fullCaptured, fullAt)
		}
		if a.Moves() != full.Moves() {
			t.Errorf("cap %d changed Moves: %d vs %d", cap, a.Moves(), full.Moves())
		}
		if got, want := a.hist.buf, full.hist.buf; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("cap %d changed the H-window: %v vs %v", cap, got, want)
		}
		wantLen := cap
		if cap < 0 {
			wantLen = 1 // negative caps keep s0 alone
		}
		path := a.Path()
		if len(path) != wantLen {
			t.Fatalf("cap %d recorded %v, want the first %d locations", cap, path, wantLen)
		}
		for i := range path {
			if path[i] != full.Path()[i] {
				t.Errorf("cap %d path %v is not a prefix of %v", cap, path, full.Path())
			}
		}
	}
}

func TestSetPathCapTruncatesExistingWalk(t *testing.T) {
	sim, _, m, a := lineWorld(t, Params{R: 1, M: 2}, FirstHeard{})
	a.ActivateAt(0)
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(3, []byte{1}) })
	sim.ScheduleAfter(2*time.Second, func() { m.Broadcast(2, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := a.Path(); len(got) != 3 {
		t.Fatalf("walk = %v, want 3 locations before capping", got)
	}
	a.SetPathCap(2)
	if got := a.Path(); len(got) != 2 || got[0] != 4 || got[1] != 3 {
		t.Errorf("capped walk = %v, want [4 3]", got)
	}
	if a.Moves() != 2 {
		t.Errorf("Moves = %d after capping, want 2", a.Moves())
	}
}
