package core

import (
	"math"
	"slices"

	"slpdas/internal/topo"
)

// nearestTo returns the node closest to p. It lives outside scale_test.go
// (build-tagged !race) because regular tests use it too, race builds
// included.
func nearestTo(g *topo.Graph, p topo.Point) topo.NodeID {
	best, bestD := topo.NodeID(0), math.Inf(1)
	for id := topo.NodeID(0); int(id) < g.Len(); id++ {
		if d := g.Position(id).DistanceTo(p); d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// get returns the table's entry about id, and whether one is known.
func (t *infoTable) get(id topo.NodeID) (info, bool) {
	if i, ok := slices.BinarySearch(t.ids, id); ok && t.infos[i].seen != 0 {
		return t.infos[i], true
	}
	return info{}, false
}

// relTo returns the table's relation bits to id, a member of the node's
// two-hop set, found by search: the reference lookup, independent of the
// rank rows the receive path places senders with.
func (t *infoTable) relTo(id topo.NodeID) *rel {
	i, _ := slices.BinarySearch(t.ids, id)
	return &t.rels[i]
}
