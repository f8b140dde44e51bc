package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// TestMergeInfosMatchesPerEntryMerge merges random DISSEMs, each the
// sender's entry plus a random subset of the sender's neighbours, into
// the receiver's table through the receive path's placement and the
// edge's rank row, and checks the result against the per-entry merge on
// a map keyed by node ID: the same entries, senderSlot, learned flag and
// cache invalidation. Most DISSEMs list the neighbours ascending, as
// buildDissem does; the rest reverse or shuffle them, which placement
// must not depend on.
func TestMergeInfosMatchesPerEntryMerge(t *testing.T) {
	side := math.Sqrt(500) * topo.DefaultSpacing
	rgg, err := topo.RandomGeometric(500, side, side, 2.2*topo.DefaultSpacing, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topo.DefaultGrid(11)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topo.Graph{grid, rgg} {
		t.Run(g.Name(), func(t *testing.T) {
			net, err := NewNetwork(g, 0, 1, Default(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.buildInfoTables(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(1, 2))
			models := make(map[topo.NodeID]map[topo.NodeID]wire.NodeInfo)
			for iter := 0; iter < 20000; iter++ {
				r := topo.NodeID(rng.IntN(g.Len()))
				nd := &net.nodes[r]
				model := models[r]
				if model == nil || rng.IntN(50) == 0 {
					nd.reset(1)
					model = make(map[topo.NodeID]wire.NodeInfo)
					models[r] = model
				}
				if rng.IntN(4) == 0 {
					*nd.ninfo.relTo(g.Neighbors(r)[rng.IntN(len(g.Neighbors(r)))]) |= relNeighbour
				}
				s := g.Neighbors(r)[rng.IntN(len(g.Neighbors(r)))]
				e := slices.Index(g.Neighbors(s), r)
				entry := func(id topo.NodeID) wire.NodeInfo {
					return wire.NodeInfo{Node: id, Hop: rng.Int32N(5) - 1, Slot: rng.Int32N(5) - 1, Version: rng.Uint32N(6)}
				}
				infos := []wire.NodeInfo{entry(s)}
				for _, m := range g.Neighbors(s) {
					if rng.IntN(2) == 0 {
						infos = append(infos, entry(m))
					}
				}
				switch rng.IntN(8) {
				case 0:
					slices.Reverse(infos)
				case 1:
					rng.Shuffle(len(infos), func(i, j int) { infos[i], infos[j] = infos[j], infos[i] })
				}
				if !net.placeDissem(s, infos) {
					t.Fatalf("iter %d: DISSEM from %d listing only it and its neighbours does not place: %v", iter, s, infos)
				}

				// The per-entry model: own state is never overwritten, a
				// fresh entry is an unknown one or a higher version.
				wantSlot, wantLearned, wantDirty := noValue, false, false
				for _, in := range infos {
					if in.Node == s {
						wantSlot = in.Slot
					}
					if in.Node == r {
						continue
					}
					if cur, known := model[in.Node]; !known || in.Version > cur.Version {
						model[in.Node] = in
						wantDirty = true
						if in.Node == s || *nd.ninfo.relTo(in.Node)&relNeighbour != 0 {
							wantLearned = true
						}
					}
				}
				nd.dirty = false
				gotSlot, gotLearned := nd.mergeInfos(infos, net.decPos, net.ranks.Row(s, e))
				if gotSlot != wantSlot || gotLearned != wantLearned || nd.dirty != wantDirty {
					t.Fatalf("iter %d: %d→%d %v: slot %d learned %v dirty %v, want %d %v %v",
						iter, s, r, infos, gotSlot, gotLearned, nd.dirty, wantSlot, wantLearned, wantDirty)
				}
				for k, id := range nd.ninfo.ids {
					got := nd.ninfo.infos[k]
					want := unknown
					if in, known := model[id]; known {
						want = info{hop: in.Hop, slot: in.Slot, seen: in.Version + 1}
					}
					if got != want {
						t.Fatalf("iter %d: %d→%d %v: node %d's entry about %d is %+v, want %+v", iter, s, r, infos, r, id, got, want)
					}
				}
				if len(model) > len(nd.ninfo.ids) {
					t.Fatalf("iter %d: model holds %d entries, the table has room for %d", iter, len(model), len(nd.ninfo.ids))
				}

			}
		})
	}
}
