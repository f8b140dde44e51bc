package schedule

import (
	"fmt"

	"slpdas/internal/topo"
)

// GreedyDAS builds a centralized strong DAS by sweeping nodes in BFS order
// from the sink: each node takes a slot strictly below all of its
// shortest-path next hops towards the sink, lowered further until
// non-colliding in its 2-hop neighbourhood. It serves as the reference
// schedule "F" of Definition 5, as a test fixture, and as a converged
// ideal of the distributed Phase 1 protocol.
//
// slots is the slot-space size Δ; the sink is assigned Δ itself (it never
// transmits). Returns an error if the graph is disconnected or the slot
// space is too small for the topology.
func GreedyDAS(g *topo.Graph, sink topo.NodeID, slots int) (*Assignment, error) {
	if !g.Valid(sink) {
		return nil, fmt.Errorf("schedule: invalid sink %d", sink)
	}
	dist := g.BFSFrom(sink)
	a := New(g.Len(), sink)
	a.Set(sink, slots)

	// Nodes in increasing hop distance, ties by ID: parents first.
	order := make([]topo.NodeID, 0, g.Len()-1)
	maxDist := 0
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		if n == sink {
			continue
		}
		if dist[n] < 0 {
			return nil, fmt.Errorf("schedule: node %d unreachable from sink", n)
		}
		order = append(order, n)
		if dist[n] > maxDist {
			maxDist = dist[n]
		}
	}
	// Counting sort by distance keeps ID order within each level.
	byLevel := make([][]topo.NodeID, maxDist+1)
	for _, n := range order {
		byLevel[dist[n]] = append(byLevel[dist[n]], n)
	}

	for level := 1; level <= maxDist; level++ {
		for _, n := range byLevel[level] {
			slot := slots // upper bound: strictly below every next hop
			for _, m := range g.Neighbors(n) {
				if dist[m] == level-1 && a.Slot(m) < slot {
					slot = a.Slot(m)
				}
			}
			slot--
			for slot >= 0 && !NonColliding(g, a, n, slot) {
				slot--
			}
			if slot < 0 {
				return nil, fmt.Errorf("schedule: slot space %d too small at node %d (distance %d)", slots, n, level)
			}
			a.Set(n, slot)
		}
	}
	return a, nil
}
