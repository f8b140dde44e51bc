package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// mergeInfosByEntry is the per-entry merge mergeInfos replaces: one get
// and, for a fresh entry, one set per DISSEM entry, in message order.
func mergeInfosByEntry(n *node, sender topo.NodeID, infos []wire.NodeInfo) (senderSlot int32, learned bool) {
	senderSlot = noValue
	for _, in := range infos {
		if in.Node == n.id {
			continue
		}
		cur, known := n.ninfo.get(in.Node)
		if !known || in.Version > cur.version {
			n.ninfo.set(in.Node, info{hop: in.Hop, slot: in.Slot, version: in.Version})
			if in.Node == sender || n.myN.has(in.Node) {
				learned = true
			}
		}
		if in.Node == sender {
			senderSlot = in.Slot
		}
	}
	return senderSlot, learned
}

// TestMergeInfosMatchesPerEntryMerge: for DISSEM entry lists in every
// order — buildDissem's (sender, then ascending), shuffled, descending,
// with duplicates and with the receiver's own ID — the merge join leaves
// the same Ninfo and reports the same learnedNeighbour and senderSlot as
// the per-entry get/set it replaces.
func TestMergeInfosMatchesPerEntryMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const ids = 40
	for iter := 0; iter < 20000; iter++ {
		self, sender := topo.NodeID(rng.IntN(ids)), topo.NodeID(rng.IntN(ids))
		a, b := &node{id: self}, &node{id: self}
		for k := rng.IntN(ids); k > 0; k-- {
			id := topo.NodeID(rng.IntN(ids))
			in := info{hop: rng.Int32N(5), slot: rng.Int32N(5) - 1, version: rng.Uint32N(4)}
			a.ninfo.set(id, in)
			b.ninfo.set(id, in)
		}
		for k := rng.IntN(ids / 2); k > 0; k-- {
			m := topo.NodeID(rng.IntN(ids))
			a.addNeighbour(m)
			b.addNeighbour(m)
		}
		infos := make([]wire.NodeInfo, rng.IntN(24))
		for k := range infos {
			infos[k] = wire.NodeInfo{Node: topo.NodeID(rng.IntN(ids)), Hop: rng.Int32N(5), Slot: rng.Int32N(5) - 1, Version: rng.Uint32N(6)}
		}
		switch mode := iter % 4; {
		case mode == 0 && len(infos) > 0: // buildDissem's order: the sender, then ascending
			infos[0].Node = sender
			slices.SortFunc(infos[1:], func(x, y wire.NodeInfo) int { return int(x.Node - y.Node) })
		case mode == 1: // descending
			slices.SortFunc(infos, func(x, y wire.NodeInfo) int { return int(y.Node - x.Node) })
		case mode == 2 && len(infos) > 1: // ascending with a repeated run
			slices.SortFunc(infos, func(x, y wire.NodeInfo) int { return int(x.Node - y.Node) })
			infos = append(infos, infos[len(infos)/2:]...)
		}
		a.ninfo.dirty, b.ninfo.dirty = false, false
		gotSlot, gotLearned := a.mergeInfos(sender, infos)
		wantSlot, wantLearned := mergeInfosByEntry(b, sender, infos)
		if gotSlot != wantSlot || gotLearned != wantLearned ||
			!reflect.DeepEqual(a.ninfo.ids, b.ninfo.ids) || !reflect.DeepEqual(a.ninfo.infos, b.ninfo.infos) ||
			a.ninfo.dirty != b.ninfo.dirty {
			t.Fatalf("iter %d self %d sender %d infos %v:\nmerge join: slot %d learned %v dirty %v table %v %v\nper entry:  slot %d learned %v dirty %v table %v %v",
				iter, self, sender, infos, gotSlot, gotLearned, a.ninfo.dirty, a.ninfo.ids, a.ninfo.infos,
				wantSlot, wantLearned, b.ninfo.dirty, b.ninfo.ids, b.ninfo.infos)
		}
	}
}

// TestInfoCursorMatchesGet: a cursor answers any sequence of lookups —
// ascending, repeated or descending — exactly as a fresh binary search.
func TestInfoCursorMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 2000; iter++ {
		var tab infoTable
		for k := rng.IntN(30); k > 0; k-- {
			tab.set(topo.NodeID(rng.IntN(50)), info{version: rng.Uint32()})
		}
		cur := tab.cursor()
		for k := 0; k < 40; k++ {
			id := topo.NodeID(rng.IntN(52) - 1)
			got, gotOK := cur.get(id)
			want, wantOK := tab.get(id)
			if got != want || gotOK != wantOK {
				t.Fatalf("iter %d lookup %d of %d: cursor (%v, %v), get (%v, %v)", iter, k, id, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestSortedSetMatchesMap: the sorted-slice sets replacing the protocol's
// maps hold the same members, in ascending order.
func TestSortedSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var s sortedSet[topo.NodeID]
	model := map[topo.NodeID]bool{}
	for k := 0; k < 5000; k++ {
		v := topo.NodeID(rng.IntN(64))
		if rng.IntN(3) == 0 {
			s.remove(v)
			delete(model, v)
		} else {
			s.add(v)
			model[v] = true
		}
		if s.has(v) != model[v] {
			t.Fatalf("step %d: has(%d) = %v, want %v", k, v, s.has(v), model[v])
		}
	}
	want := make([]topo.NodeID, 0, len(model))
	for v := range model {
		want = append(want, v)
	}
	slices.Sort(want)
	if !slices.Equal(s, want) {
		t.Errorf("set = %v, want %v", s, want)
	}
}
