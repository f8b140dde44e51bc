package schedule

import (
	"testing"
	"testing/quick"

	"slpdas/internal/topo"
)

func line5(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Line(5, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	return g
}

// lineSchedule builds 0-1-2-3-4 with sink at 4 and slots 1,2,3,4 increasing
// towards the sink: a valid strong DAS.
func lineSchedule(t *testing.T) (*topo.Graph, *Assignment) {
	t.Helper()
	g := line5(t)
	a := New(g.Len(), 4)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 3)
	a.Set(3, 4)
	a.Set(4, 100)
	return g, a
}

func TestLineScheduleIsStrongAndWeakDAS(t *testing.T) {
	g, a := lineSchedule(t)
	if v := CheckStrongDAS(g, a); len(v) != 0 {
		t.Errorf("strong DAS violations: %v", v)
	}
	if v := CheckWeakDAS(g, a); len(v) != 0 {
		t.Errorf("weak DAS violations: %v", v)
	}
}

func TestUnassignedDetected(t *testing.T) {
	g, a := lineSchedule(t)
	a.Set(2, Unassigned)
	found := false
	for _, v := range CheckWeakDAS(g, a) {
		if v.Kind == KindUnassigned && v.Node == 2 {
			found = true
		}
	}
	if !found {
		t.Error("unassigned node 2 not reported")
	}
}

func TestCollisionDetected(t *testing.T) {
	g, a := lineSchedule(t)
	// Nodes 1 and 3 are two hops apart (via 2): same slot collides.
	a.Set(3, 2)
	violations := CheckNonColliding(g, a)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly 1", violations)
	}
	v := violations[0]
	if v.Kind != KindCollision || v.Node != 1 || v.Other != 3 {
		t.Errorf("violation = %+v", v)
	}
	if v.String() == "" {
		t.Error("empty violation string")
	}
}

func TestCollisionBeyondTwoHopsAllowed(t *testing.T) {
	g, a := lineSchedule(t)
	// Nodes 0 and 3 are three hops apart: slot reuse is legal (Def. 1).
	a.Set(0, 4)
	a.Set(3, 4)
	if v := CheckNonColliding(g, a); len(v) != 0 {
		t.Errorf("3-hop reuse flagged: %v", v)
	}
}

func TestStrongViolationWhenParentEarlier(t *testing.T) {
	g, a := lineSchedule(t)
	// Node 2's shortest-path next hop is 3; give 3 an earlier slot.
	a.Set(3, 1)
	a.Set(0, 3) // keep 0 legal relative to 1
	var kinds []ViolationKind
	for _, v := range CheckStrongDAS(g, a) {
		kinds = append(kinds, v.Kind)
	}
	found := false
	for _, k := range kinds {
		if k == KindEarlierShortestParent {
			found = true
		}
	}
	if !found {
		t.Errorf("no earlier-shortest-parent violation in %v", kinds)
	}
}

func TestWeakHoldsWhereStrongFails(t *testing.T) {
	// Grid corner: two shortest-path next hops. Give one a later slot and
	// one an earlier slot: strong fails, weak holds.
	g, err := topo.DefaultGrid(3)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sink := topo.GridCentre(3) // node 4
	a := New(g.Len(), sink)
	a.Set(sink, 100)
	// Distances from sink: corners 2, edges 1.
	a.Set(1, 50)
	a.Set(3, 51)
	a.Set(5, 52)
	a.Set(7, 53)
	a.Set(0, 49) // corner 0: next hops 1 (50) and 3 (51) both later: fine
	a.Set(2, 30) // corner 2: next hops 1 (50), 5 (52) both later: fine
	a.Set(6, 29)
	// Corner 8: next hops 5 (52) and 7; set 8's slot between them.
	a.Set(8, 40)
	a.Set(7, 35) // now 7 < 8: strong violated at 8, but 5 (52) > 40 keeps weak
	if len(CheckStrongDAS(g, a)) == 0 {
		t.Error("strong DAS holds, want violation at corner 8")
	}
	if !IsWeakDAS(g, a) {
		t.Errorf("weak DAS violated: %v", CheckWeakDAS(g, a))
	}
}

func TestWeakViolationNoRoute(t *testing.T) {
	g, a := lineSchedule(t)
	// Node 0's only neighbour is 1; make 1 earlier than 0.
	a.Set(0, 3)
	a.Set(1, 2)
	found := false
	for _, v := range CheckWeakDAS(g, a) {
		if v.Kind == KindNoRouteToSink && v.Node == 0 {
			found = true
		}
	}
	if !found {
		t.Error("no-route-to-sink violation not reported for node 0")
	}
}

func TestWeakReachabilityIsTransitive(t *testing.T) {
	// 0 can only reach the sink through 1 and 2; breaking 2 strands both
	// 0 and 1 even though 1 has a later neighbour (2).
	g := line5(t)
	a := New(g.Len(), 4)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 1) // 2 earlier than 1: 1 cannot progress, so 0 cannot either
	a.Set(3, 4)
	a.Set(4, 100)
	stranded := map[topo.NodeID]bool{}
	for _, v := range CheckWeakDAS(g, a) {
		if v.Kind == KindNoRouteToSink {
			stranded[v.Node] = true
		}
	}
	if !stranded[0] || !stranded[1] {
		t.Errorf("stranded = %v, want nodes 0 and 1", stranded)
	}
}

func TestSlotRange(t *testing.T) {
	g, a := lineSchedule(t)
	a.Set(0, -3)
	a.Set(1, 100)
	vs := CheckSlotRange(g, a, 100)
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2", vs)
	}
}

// clone returns a deep copy of a, the reference Equal is checked against.
func clone(a *Assignment) *Assignment {
	return &Assignment{slots: append([]int(nil), a.slots...), sink: a.sink}
}

func TestCloneAndEqual(t *testing.T) {
	_, a := lineSchedule(t)
	b := clone(a)
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Set(0, 99)
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	if a.Slot(0) == 99 {
		t.Error("clone aliases original")
	}
}

func TestViolationKindStrings(t *testing.T) {
	kinds := []ViolationKind{KindUnassigned, KindCollision, KindEarlierShortestParent, KindNoRouteToSink, KindSlotOutOfRange, ViolationKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}

func TestGreedyDASOnGridsIsStrongDAS(t *testing.T) {
	for _, side := range []int{3, 5, 11, 15, 21} {
		g, err := topo.DefaultGrid(side)
		if err != nil {
			t.Fatalf("grid %d: %v", side, err)
		}
		sink := topo.GridCentre(side)
		a, err := GreedyDAS(g, sink, 100)
		if err != nil {
			t.Fatalf("GreedyDAS %d: %v", side, err)
		}
		if vs := CheckStrongDAS(g, a); len(vs) != 0 {
			t.Errorf("grid %d: strong violations %v", side, vs[:min(3, len(vs))])
		}
		if vs := CheckSlotRange(g, a, 100); len(vs) != 0 {
			t.Errorf("grid %d: slot range violations %v", side, vs[:min(3, len(vs))])
		}
	}
}

func TestGreedyDASQuickRandomGeometric(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := topo.RandomGeometric(30, 40, 40, 13, seed)
		if err != nil {
			return true // could not build a connected graph; skip
		}
		a, err := GreedyDAS(g, 0, 200)
		if err != nil {
			return true // slot space too small for this layout; skip
		}
		return len(CheckStrongDAS(g, a)) == 0 && IsWeakDAS(g, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGreedyDASErrors(t *testing.T) {
	g := line5(t)
	if _, err := GreedyDAS(g, topo.NodeID(99), 100); err == nil {
		t.Error("invalid sink accepted")
	}
	if _, err := GreedyDAS(g, 4, 2); err == nil {
		t.Error("tiny slot space accepted for a 5-line")
	}
}
