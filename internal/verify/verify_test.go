package verify

import (
	"testing"

	"slpdas/internal/attacker"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
)

// gradientLine builds the line 0-1-2-3-4 with sink 4 and slots strictly
// increasing towards the sink: the protectionless gradient an eavesdropper
// follows straight to node 0.
func gradientLine(t *testing.T) (*topo.Graph, *schedule.Assignment) {
	t.Helper()
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a := schedule.New(g.Len(), 4)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 3)
	a.Set(3, 4)
	a.Set(4, 100) // sink slot Δ
	return g, a
}

// decoyLine builds the same line but with a slot trap: node 2 is a local
// minimum, so a first-heard attacker walks 4→3→2 and is absorbed there.
func decoyLine(t *testing.T) (*topo.Graph, *schedule.Assignment) {
	t.Helper()
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a := schedule.New(g.Len(), 4)
	a.Set(0, 3)
	a.Set(1, 4)
	a.Set(2, 1) // decoy local minimum
	a.Set(3, 2)
	a.Set(4, 100)
	return g, a
}

func TestGradientLineCaptured(t *testing.T) {
	g, a := gradientLine(t)
	res, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 4}, FirstHeardD, 10, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	if res.SLPAware {
		t.Fatal("gradient schedule verified SLP-aware; want capture")
	}
	if res.CapturePeriod != 4 {
		t.Errorf("CapturePeriod = %d, want 4", res.CapturePeriod)
	}
	want := []topo.NodeID{4, 3, 2, 1, 0}
	if len(res.Counterexample) != len(want) {
		t.Fatalf("counterexample = %v, want %v", res.Counterexample, want)
	}
	for i := range want {
		if res.Counterexample[i] != want[i] {
			t.Fatalf("counterexample = %v, want %v", res.Counterexample, want)
		}
	}
}

func TestCounterexampleReplays(t *testing.T) {
	g, a := gradientLine(t)
	res, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 4}, FirstHeardD, 10, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	pc := res.Counterexample
	if pc[0] != 4 || pc[len(pc)-1] != 0 {
		t.Fatalf("counterexample endpoints: %v", pc)
	}
	for i := 0; i+1 < len(pc); i++ {
		if !g.HasEdge(pc[i], pc[i+1]) {
			t.Errorf("counterexample step %d→%d is not an edge", pc[i], pc[i+1])
		}
	}
}

func TestSafetyPeriodBoundary(t *testing.T) {
	g, a := gradientLine(t)
	p := attacker.Params{R: 1, M: 1, Start: 4}
	// Capture takes exactly 4 periods: δ = 4 captures, δ = 3 does not.
	res4, err := VerifySchedule(g, a, p, FirstHeardD, 4, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule δ=4: %v", err)
	}
	if res4.SLPAware {
		t.Error("δ=4: want capture at the boundary (period ≤ δ)")
	}
	res3, err := VerifySchedule(g, a, p, FirstHeardD, 3, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule δ=3: %v", err)
	}
	if !res3.SLPAware {
		t.Error("δ=3: want SLP-aware (capture needs 4 periods)")
	}
}

func TestDecoyAbsorbsFirstHeardAttacker(t *testing.T) {
	g, a := decoyLine(t)
	res, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 4}, FirstHeardD, 100, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	if !res.SLPAware {
		t.Errorf("decoy schedule captured via %v", res.Counterexample)
	}
}

func TestStrongerAttackerBreaksDecoyOnlyWithEnoughR(t *testing.T) {
	g, a := decoyLine(t)
	// R=2: node 1 (slot 4) is never among the two lowest audible slots at
	// node 2 ({2:1, 3:2}), so even the nondeterministic attacker is safe.
	res2, err := VerifySchedule(g, a, attacker.Params{R: 2, M: 2, Start: 4}, AnyHeardD, 100, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule R=2: %v", err)
	}
	if !res2.SLPAware {
		t.Errorf("R=2 attacker captured via %v", res2.Counterexample)
	}
	// R=3 with two moves per period: node 1 becomes audible-and-eligible
	// (uphill move 2→1 within the period), then 1→0 captures.
	res3, err := VerifySchedule(g, a, attacker.Params{R: 3, M: 2, Start: 4}, AnyHeardD, 100, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule R=3: %v", err)
	}
	if res3.SLPAware {
		t.Error("R=3, M=2 attacker should capture through the decoy")
	}
	// With M=1 under strict Algorithm 1 semantics the uphill escape is
	// discarded (move budget spent), so the decoy holds even at R=3.
	res3m1, err := VerifySchedule(g, a, attacker.Params{R: 3, M: 1, Start: 4}, AnyHeardD, 100, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule R=3 M=1: %v", err)
	}
	if !res3m1.SLPAware {
		t.Error("R=3, M=1 attacker should stay trapped under strict semantics")
	}
}

func TestAudibleClosedNeighbourhood(t *testing.T) {
	g, a := decoyLine(t)
	cands := Audible(g, a, 2, 10)
	// Node 2 hears itself (slot 1), node 1 (slot 4) and node 3 (slot 2).
	if len(cands) != 3 {
		t.Fatalf("candidates = %v, want 3", cands)
	}
	if cands[0].Node != 2 || cands[1].Node != 3 || cands[2].Node != 1 {
		t.Errorf("candidates order = %v, want [2 3 1] by slot", cands)
	}
	// The sink never transmits: from node 3, node 4 must not be audible.
	for _, c := range Audible(g, a, 3, 10) {
		if c.Node == 4 {
			t.Error("sink appeared in the audible set")
		}
	}
	// R truncation.
	if got := Audible(g, a, 2, 1); len(got) != 1 || got[0].Node != 2 {
		t.Errorf("R=1 audible = %v, want [node 2]", got)
	}
}

func TestMovesWithinPeriodRequireLaterSlots(t *testing.T) {
	// Line with slots 0:1 1:2 2:3 3:4, sink 4. An M=2 attacker moving
	// 4→3→... : 3→2 goes to an earlier slot (already passed), so the
	// second hop must wait for the next period even with M=2. Total
	// capture: period 1 (4→3), then periods 2,3,4.
	g, a := gradientLine(t)
	res, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 2, Start: 4}, AnyHeardD, 10, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	if res.SLPAware {
		t.Fatal("want capture")
	}
	if res.CapturePeriod != 4 {
		t.Errorf("CapturePeriod = %d, want 4 (downhill moves cannot chain in one period)", res.CapturePeriod)
	}
}

func TestUphillMovesChainWithinPeriod(t *testing.T) {
	// Slots increase away from the start: an M=2 attacker can take two
	// uphill hops inside one period (period 0 — Algorithm 1 only advances
	// the counter on earlier-slot moves). Line 0-1-2-3-4, start at 0
	// (slot 1), hunting node 2; R=3 so the slot-3 target is audible.
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a := schedule.New(g.Len(), 4)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 3)
	a.Set(3, 4)
	a.Set(4, 100)
	res, err := VerifySchedule(g, a, attacker.Params{R: 3, M: 2, Start: 0}, AnyHeardD, 1, 2, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	if res.SLPAware {
		t.Fatal("want capture within one period via two uphill moves")
	}
	if res.CapturePeriod != 0 {
		t.Errorf("CapturePeriod = %d, want 0 (uphill moves stay in the opening period)", res.CapturePeriod)
	}
	// With M=1 the second uphill hop is discarded under strict semantics.
	res1, err := VerifySchedule(g, a, attacker.Params{R: 3, M: 1, Start: 0}, AnyHeardD, 1, 2, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule M=1: %v", err)
	}
	if !res1.SLPAware {
		t.Error("M=1 attacker chained two uphill moves; want trace discarded")
	}
}

func TestAllowWaitExploresDeferredMoves(t *testing.T) {
	// Same uphill hunt with M=1: Algorithm 1 as printed discards the
	// second uphill move (budget spent); AllowWait lets the attacker take
	// it next period.
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	a := schedule.New(g.Len(), 4)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 3)
	a.Set(3, 4)
	a.Set(4, 100)
	strict, err := VerifySchedule(g, a, attacker.Params{R: 3, M: 1, Start: 0}, AnyHeardD, 5, 2, Options{})
	if err != nil {
		t.Fatalf("strict: %v", err)
	}
	if !strict.SLPAware {
		t.Error("strict semantics: uphill chain with M=1 should not capture")
	}
	wait, err := VerifySchedule(g, a, attacker.Params{R: 3, M: 1, Start: 0}, AnyHeardD, 5, 2, Options{AllowWait: true})
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if wait.SLPAware {
		t.Error("AllowWait semantics: deferred uphill move should capture")
	}
	if wait.CapturePeriod != 1 {
		t.Errorf("AllowWait CapturePeriod = %d, want 1", wait.CapturePeriod)
	}
}

func TestUnvisitedDWithHistory(t *testing.T) {
	g, a := gradientLine(t)
	res, err := VerifySchedule(g, a, attacker.Params{R: 2, M: 1, H: 1, Start: 4}, UnvisitedD, 10, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	if res.SLPAware {
		t.Error("history-assisted attacker should still capture the gradient line")
	}
}

func TestMinCapturePeriod(t *testing.T) {
	g, a := gradientLine(t)
	p := attacker.Params{R: 1, M: 1, Start: 4}
	cap4, ok, err := MinCapturePeriod(g, a, p, FirstHeardD, 0, 100, Options{})
	if err != nil {
		t.Fatalf("MinCapturePeriod: %v", err)
	}
	if !ok || cap4 != 4 {
		t.Errorf("MinCapturePeriod = %d,%v, want 4,true", cap4, ok)
	}
	gd, ad := decoyLine(t)
	_, ok, err = MinCapturePeriod(gd, ad, p, FirstHeardD, 0, 100, Options{})
	if err != nil {
		t.Fatalf("MinCapturePeriod decoy: %v", err)
	}
	if ok {
		t.Error("decoy line captured; want never")
	}
}

func TestIsSLPAwareDAS(t *testing.T) {
	// Definition 5 condition 1: a schedule that is not a weak DAS must be
	// rejected regardless of its privacy.
	gl, base := gradientLine(t)
	_, decoy := decoyLine(t)
	p := attacker.Params{R: 1, M: 1, Start: 4}
	aware, err := IsSLPAwareDAS(gl, decoy, base, p, FirstHeardD, 0, 100, Options{})
	if err != nil {
		t.Fatalf("IsSLPAwareDAS: %v", err)
	}
	if aware {
		t.Error("decoy line is not a weak DAS; Definition 5 must reject it")
	}
	// A schedule is never SLP-aware relative to itself (strict inequality).
	aware, err = IsSLPAwareDAS(gl, base, base, p, FirstHeardD, 0, 100, Options{})
	if err != nil {
		t.Fatalf("IsSLPAwareDAS self: %v", err)
	}
	if aware {
		t.Error("schedule SLP-aware vs itself; want strict improvement required")
	}

	// Positive case on a 3×3 grid (0..8, sink 4, source 0), where a decoy
	// local minimum can coexist with the weak-DAS property because routing
	// and luring can use different neighbours.
	g, err := topo.DefaultGrid(3)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	// Baseline F: gradient pulling the attacker 4→1→0 (capture period 2).
	f := schedule.New(g.Len(), 4)
	for n, s := range map[topo.NodeID]int{0: 10, 1: 20, 2: 30, 3: 21, 5: 40, 6: 31, 7: 41, 8: 39} {
		f.Set(n, s)
	}
	f.Set(4, 100)
	if !schedule.IsWeakDAS(g, f) {
		t.Fatalf("baseline should be weak DAS: %v", schedule.CheckWeakDAS(g, f))
	}
	capF, okF, err := MinCapturePeriod(g, f, attacker.Params{R: 1, M: 1, Start: 4}, FirstHeardD, 0, 100, Options{})
	if err != nil {
		t.Fatalf("MinCapturePeriod baseline: %v", err)
	}
	if !okF || capF != 2 {
		t.Fatalf("baseline capture = %d,%v, want 2,true", capF, okF)
	}
	// Fs: decoy at node 8 (via 5), still a weak DAS; the first-heard
	// attacker walks 4→5→8 and is absorbed there.
	fs := schedule.New(g.Len(), 4)
	for n, s := range map[topo.NodeID]int{0: 10, 1: 20, 2: 14, 3: 21, 5: 15, 6: 31, 7: 41, 8: 12} {
		fs.Set(n, s)
	}
	fs.Set(4, 100)
	if !schedule.IsWeakDAS(g, fs) {
		t.Fatalf("Fs should be weak DAS: %v", schedule.CheckWeakDAS(g, fs))
	}
	aware, err = IsSLPAwareDAS(g, fs, f, attacker.Params{R: 1, M: 1, Start: 4}, FirstHeardD, 0, 100, Options{})
	if err != nil {
		t.Fatalf("IsSLPAwareDAS grid: %v", err)
	}
	if !aware {
		t.Error("decoy grid schedule not recognised as SLP-aware vs baseline")
	}
}

func TestGreedyGridVerification(t *testing.T) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sink := topo.GridCentre(11)
	a, err := schedule.GreedyDAS(g, sink, 100)
	if err != nil {
		t.Fatalf("GreedyDAS: %v", err)
	}
	p := attacker.Params{R: 1, M: 1, Start: sink}
	res, err := VerifySchedule(g, a, p, FirstHeardD, 16, topo.GridTopLeft(), Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	// Whatever the outcome, a returned counterexample must replay and
	// capture no earlier than the hop distance allows.
	if !res.SLPAware {
		if res.CapturePeriod < g.HopDistance(sink, topo.GridTopLeft()) {
			t.Errorf("capture period %d beats hop distance %d", res.CapturePeriod, g.HopDistance(sink, topo.GridTopLeft()))
		}
		for i := 0; i+1 < len(res.Counterexample); i++ {
			if !g.HasEdge(res.Counterexample[i], res.Counterexample[i+1]) {
				t.Fatalf("counterexample step %d not an edge", i)
			}
		}
	}
	if res.StatesExplored == 0 {
		t.Error("no states explored")
	}
}

func TestVerifyErrors(t *testing.T) {
	g, a := gradientLine(t)
	if _, err := VerifySchedule(g, a, attacker.Params{R: 0, M: 1, Start: 4}, nil, 10, 0, Options{}); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 99}, nil, 10, 0, Options{}); err == nil {
		t.Error("invalid start accepted")
	}
	if _, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 4}, nil, -1, 0, Options{}); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 4}, AnyHeardD, 10, 0, Options{MaxStates: 2}); err == nil {
		t.Error("state budget not enforced")
	}
}

func TestNilDecisionDefaultsToFirstHeard(t *testing.T) {
	g, a := gradientLine(t)
	res, err := VerifySchedule(g, a, attacker.Params{R: 1, M: 1, Start: 4}, nil, 10, 0, Options{})
	if err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	if res.SLPAware {
		t.Error("default decision did not capture the gradient line")
	}
}
