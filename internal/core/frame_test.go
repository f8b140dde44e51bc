package core

import (
	"testing"
	"time"

	"slpdas/internal/energy"
	"slpdas/internal/fault"
	"slpdas/internal/gcn"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// TestExecutedEventsCountEveryReception pins the simulator's executed-event
// count of whole 11×11 slp-das runs. The radio runs a broadcast's fan-out
// as one frame event but charges it one event per reception plus one for
// the eavesdropper scan, so Executed — and with it Config.EventBudget —
// counts the same work as a medium scheduling each reception and the scan
// as events of their own. The wanted values were measured on that
// per-reception medium; the captured seed stops mid-run from inside a scan,
// and the churn/SINR/battery configuration kills receivers mid-frame.
func TestExecutedEventsCountEveryReception(t *testing.T) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		t.Fatal(err)
	}
	sink, source := topo.GridCentre(11), topo.GridTopLeft()
	physical := DefaultSLP(3)
	physical.Channel = mustChannel("logdist:2.4:4@sinr:3")
	if physical.Energy, err = energy.Parse("battery:25"); err != nil {
		t.Fatal(err)
	}
	physical.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.15, MTTR: 2}

	for _, tc := range []struct {
		name     string
		cfg      Config
		seed     uint64
		captured bool
		want     uint64
	}{
		{"slp-das", DefaultSLP(3), 1, false, 22402},
		{"slp-das-captured", DefaultSLP(3), 3, true, 15172},
		{"churn-sinr-battery", physical, 1, false, 24632},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewNetwork(g, sink, source, tc.cfg, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Captured != tc.captured {
				t.Fatalf("Captured = %v, want %v", res.Captured, tc.captured)
			}
			if got := net.sim.Executed(); got != tc.want {
				t.Errorf("Executed = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestDecodeOncePerFrame drives the receive path straight through the
// medium: frames sent by a node with k neighbours are decoded once and
// shared by all k receivers, a garbage frame counts one decode error per
// reception and hands no receiver the previous frame's cached message, and
// a valid frame after the garbage decodes fresh, also when a Reset of the
// network comes between them. A DISSEM with an entry about a node that is
// not the sender's neighbour is garbage too: the Ninfo tables have no
// place for it, so it merges nothing.
func TestDecodeOncePerFrame(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, topo.GridCentre(5), topo.GridTopLeft(), DefaultSLP(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.buildInfoTables(); err != nil { // what the first Run does
		t.Fatal(err)
	}
	sender := topo.GridIndex(5, 1, 1)
	nbrs := g.Neighbors(sender)
	k := uint64(len(nbrs))
	fired := make(map[topo.NodeID]int) // receive actions per process
	net.engine.OnAction = func(p *gcn.Process[*node], name string) {
		if name == "receiveN" || name == "receiveU" {
			fired[p.ID()]++
		}
	}
	send := func(payload []byte) {
		t.Helper()
		at := net.sim.Now() + time.Second
		if _, err := net.sim.Schedule(at, func() { net.medium.Broadcast(sender, payload) }); err != nil {
			t.Fatal(err)
		}
		// Run past the frame's reception window, but not into the timers
		// the receivers arm in response.
		if err := net.sim.RunUntil(at + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// A slotless sender is no potential parent and slotless receivers
	// grant no relay budget, so the receivers only record the sender's hop
	// and send nothing back that could muddy the counts.
	dissem := func(hop int32, version uint32, others ...topo.NodeID) []byte {
		infos := []wire.NodeInfo{{Node: sender, Hop: hop, Slot: wire.NoSlot, Version: version}}
		for _, m := range others {
			infos = append(infos, wire.NodeInfo{Node: m, Hop: hop, Slot: wire.NoSlot, Version: version})
		}
		return wire.AppendFrame(nil, &wire.Dissem{From: sender, Normal: true, Parent: topo.None, Infos: infos})
	}
	expect := func(step string, actions int, decodeErrors uint64, hop int32) {
		t.Helper()
		if net.res.DecodeErrors != decodeErrors {
			t.Errorf("%s: DecodeErrors = %d, want %d", step, net.res.DecodeErrors, decodeErrors)
		}
		for _, r := range nbrs {
			if fired[r] != actions {
				t.Errorf("%s: node %d ran %d DISSEM receive actions, want %d", step, r, fired[r], actions)
			}
			if in, ok := net.nodes[r].ninfo.get(sender); !ok || in.hop != hop {
				t.Errorf("%s: node %d holds sender hop %d (known %v), want %d", step, r, in.hop, ok, hop)
			}
		}
	}

	send(dissem(3, 1))
	expect("valid", 1, 0, 3)
	send([]byte{byte(wire.TypeDissem)}) // truncated: type byte only
	expect("truncated", 1, k, 3)
	send([]byte{0xff, 1, 2}) // unknown type
	expect("garbage", 1, 2*k, 3)
	send(dissem(4, 2))
	expect("valid after garbage", 2, 2*k, 4)
	// Node (1, 3) is two hops from the sender and a neighbour of receiver
	// (1, 2), so that receiver's table has room for it, but the sender
	// cannot have heard of it. Its ID falls between two of the sender's
	// neighbours.
	foreign := topo.GridIndex(5, 1, 3)
	send(dissem(5, 3, nbrs[0], foreign))
	expect("foreign entry", 2, 3*k, 4)
	for _, r := range nbrs {
		for _, m := range []topo.NodeID{nbrs[0], foreign} {
			if in, ok := net.nodes[r].ninfo.get(m); ok {
				t.Errorf("foreign entry: node %d learned %+v about node %d", r, in, m)
			}
		}
	}
	if st := net.medium.Stats(); st.Deliveries != 5*k {
		t.Errorf("Deliveries = %d, want %d: every reception reaches the receive path", st.Deliveries, 5*k)
	}

	// A Reset between a valid frame and a garbage one: the garbage frame
	// is the new run's first, and its receivers must not be handed the
	// DISSEM the previous run decoded last.
	send(dissem(6, 4))
	expect("valid before reset", 3, 3*k, 6)
	if err := net.Reset(DefaultSLP(2), 1); err != nil {
		t.Fatal(err)
	}
	clear(fired)
	send([]byte{byte(wire.TypeDissem)})
	if net.res.DecodeErrors != k {
		t.Errorf("garbage after reset: DecodeErrors = %d, want %d", net.res.DecodeErrors, k)
	}
	for _, r := range nbrs {
		if fired[r] != 0 {
			t.Errorf("garbage after reset: node %d ran %d DISSEM receive actions, want 0", r, fired[r])
		}
		if in, ok := net.nodes[r].ninfo.get(sender); ok {
			t.Errorf("garbage after reset: node %d learned %+v about the sender", r, in)
		}
	}
	send(dissem(7, 1))
	expect("valid after reset", 1, k, 7)
}
