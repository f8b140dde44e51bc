package core

import (
	"slices"

	"slpdas/internal/topo"
)

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
