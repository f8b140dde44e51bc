package schedule

import (
	"maps"
	"testing"

	"slpdas/internal/topo"
)

// fuzzSlots is the slot-space size FuzzCount checks slot ranges against.
const fuzzSlots = 8

// fuzzGraph builds the small graph FuzzCount checks on: a line, a ring, a
// grid up to 6×6, or a random geometric graph of at most 40 nodes. It
// returns nil when the builder refuses the parameters.
func fuzzGraph(shape, size uint8, seed uint64) *topo.Graph {
	var g *topo.Graph
	var err error
	switch shape % 4 {
	case 0:
		g, err = topo.Line(2+int(size%30), 4.5, 4.5)
	case 1:
		g, err = topo.Ring(3+int(size%30), 4.5, 4.5)
	case 2:
		g, err = topo.DefaultGrid(2 + int(size%5))
	default:
		n := 2 + int(size%39)
		side := 4.5 * float64(n) / 4
		g, err = topo.RandomGeometric(n, side, side, 2*4.5, seed)
	}
	if err != nil {
		return nil
	}
	return g
}

// violationKey is a violation without its slot: what the oracle decides.
type violationKey struct {
	kind        ViolationKind
	node, other topo.NodeID
}

// keyCounts counts a list's violations by kind and node pair.
func keyCounts(vs []Violation) map[violationKey]int {
	out := map[violationKey]int{}
	for _, v := range vs {
		out[violationKey{v.Kind, v.Node, v.Other}]++
	}
	return out
}

// oracle lists the violations of each definition of §IV-A by brute force,
// straight from the definitions: unassigned non-sink nodes (Def. 2/3
// conditions 1–2), strong-DAS next hops (Def. 2 condition 3) found from a
// fresh BFS, weak-DAS reachability (Def. 3 condition 3) as a fixpoint
// over neighbours, colliding pairs (Def. 1) at distance at most two by
// HasEdge and a common neighbour, and untransmittable slots.
func oracle(g *topo.Graph, a *Assignment, slots int) (unassigned, earlier, noRoute, collision, outOfRange map[violationKey]int) {
	unassigned, earlier, noRoute, collision, outOfRange = map[violationKey]int{}, map[violationKey]int{}, map[violationKey]int{}, map[violationKey]int{}, map[violationKey]int{}
	sink, n := a.Sink(), topo.NodeID(g.Len())
	transmitter := func(v topo.NodeID) bool { return v != sink && a.Assigned(v) }
	for v := topo.NodeID(0); v < n; v++ {
		if v != sink && !a.Assigned(v) {
			unassigned[violationKey{KindUnassigned, v, topo.None}] = 1
		}
		if s := a.Slot(v); transmitter(v) && (s < 0 || s >= slots) {
			outOfRange[violationKey{KindSlotOutOfRange, v, topo.None}] = 1
		}
	}

	dist := g.BFSFrom(sink)
	for v := topo.NodeID(0); v < n; v++ {
		for w := topo.NodeID(0); w < n && transmitter(v); w++ {
			if g.HasEdge(v, w) && w != sink && dist[w] == dist[v]-1 && (!a.Assigned(w) || a.Slot(w) <= a.Slot(v)) {
				earlier[violationKey{KindEarlierShortestParent, v, w}] = 1
			}
		}
	}

	reaches := make([]bool, n)
	reaches[sink] = true
	for changed := true; changed; {
		changed = false
		for v := topo.NodeID(0); v < n; v++ {
			for w := topo.NodeID(0); w < n && transmitter(v) && !reaches[v]; w++ {
				if g.HasEdge(v, w) && (w == sink || (reaches[w] && a.Slot(w) > a.Slot(v))) {
					reaches[v], changed = true, true
				}
			}
		}
	}
	for v := topo.NodeID(0); v < n; v++ {
		if transmitter(v) && !reaches[v] {
			noRoute[violationKey{KindNoRouteToSink, v, topo.None}] = 1
		}
	}

	for v := topo.NodeID(0); v < n; v++ {
		for w := v + 1; w < n; w++ {
			if !transmitter(v) || !transmitter(w) || a.Slot(v) != a.Slot(w) {
				continue
			}
			near := g.HasEdge(v, w)
			for k := topo.NodeID(0); k < n && !near; k++ {
				near = g.HasEdge(v, k) && g.HasEdge(k, w)
			}
			if near {
				collision[violationKey{KindCollision, v, w}] = 1
			}
		}
	}
	return unassigned, earlier, noRoute, collision, outOfRange
}

// union merges violation counts.
func union(ms ...map[violationKey]int) map[violationKey]int {
	out := map[violationKey]int{}
	for _, m := range ms {
		for k, c := range m {
			out[k] += c
		}
	}
	return out
}

// FuzzCount holds Count to the lengths of the four Check* lists and each
// list to a brute-force oracle of the definitions its property names, on
// small graphs whose slots include Unassigned and out-of-range values.
func FuzzCount(f *testing.F) {
	// TestWeakReachabilityIsTransitive: a 5-line with sink 4, where node
	// 2 transmitting before node 1 strands nodes 0 and 1.
	f.Add(uint8(0), uint8(3), uint64(0), uint8(4), []byte{3, 4, 3, 6, 102})
	f.Add(uint8(2), uint8(3), uint64(0), uint8(12), []byte{1, 2, 0, 3, 4, 5})
	f.Add(uint8(3), uint8(20), uint64(7), uint8(0), []byte{9, 1, 4, 12, 0, 7, 3})
	f.Add(uint8(1), uint8(5), uint64(0), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, shape, size uint8, seed uint64, sink uint8, slots []byte) {
		g := fuzzGraph(shape, size, seed)
		if g == nil {
			return
		}
		a := New(g.Len(), topo.NodeID(int(sink)%g.Len()))
		for v := range g.Len() {
			if len(slots) > 0 {
				// -2..fuzzSlots+2: Unassigned is -1, -2 and the top
				// values are assigned but out of range.
				a.Set(topo.NodeID(v), int(slots[v%len(slots)])%(fuzzSlots+5)-2)
			}
		}

		weak, strong := CheckWeakDAS(g, a), CheckStrongDAS(g, a)
		collision, outOfRange := CheckNonColliding(g, a), CheckSlotRange(g, a, fuzzSlots)
		cw, cs, cc, cr := Count(g, a, g.BFSFrom(a.Sink()), fuzzSlots)
		if cw != len(weak) || cs != len(strong) || cc != len(collision) || cr != len(outOfRange) {
			t.Fatalf("Count = %d, %d, %d, %d; lists have %d, %d, %d, %d",
				cw, cs, cc, cr, len(weak), len(strong), len(collision), len(outOfRange))
		}

		un, ep, nr, co, oor := oracle(g, a, fuzzSlots)
		for _, c := range []struct {
			name      string
			got, want map[violationKey]int
		}{
			{"weak DAS", keyCounts(weak), union(un, nr, co)},
			{"strong DAS", keyCounts(strong), union(un, ep, co)},
			{"non-colliding", keyCounts(collision), co},
			{"slot range", keyCounts(outOfRange), oor},
			{"assigned", keyCounts(CheckAssigned(g, a)), un},
		} {
			if !maps.Equal(c.got, c.want) {
				t.Errorf("%s on %s with sink %d: got %v, want %v", c.name, g.Name(), a.Sink(), c.got, c.want)
			}
		}
		if IsWeakDAS(g, a) != (len(weak) == 0) {
			t.Errorf("IsWeakDAS = %v with %d weak violations", IsWeakDAS(g, a), len(weak))
		}
	})
}

// TestCountAllocsIndependentOfSize pins Count's allocations on a valid
// schedule: the weak-DAS search's visited set and stack, whatever the
// network's size, and no slice per node.
func TestCountAllocsIndependentOfSize(t *testing.T) {
	var counts []float64
	for _, side := range []int{11, 41} {
		g, err := topo.DefaultGrid(side)
		if err != nil {
			t.Fatalf("grid %d: %v", side, err)
		}
		sink := topo.GridCentre(side)
		a, err := GreedyDAS(g, sink, 400)
		if err != nil {
			t.Fatalf("GreedyDAS %d: %v", side, err)
		}
		dist := g.BFSFrom(sink)
		var weak, strong, collision, outOfRange int
		allocs := testing.AllocsPerRun(10, func() {
			weak, strong, collision, outOfRange = Count(g, a, dist, 400)
		})
		if weak+strong+collision+outOfRange != 0 {
			t.Fatalf("grid %d: GreedyDAS schedule has violations %d, %d, %d, %d", side, weak, strong, collision, outOfRange)
		}
		if allocs > 2 {
			t.Errorf("grid %d: Count made %v allocations, want at most 2", side, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("Count allocations grow with the grid: %v on 11×11, %v on 41×41", counts[0], counts[1])
	}
}
