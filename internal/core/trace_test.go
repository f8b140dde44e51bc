package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"slpdas/internal/fault"
	"slpdas/internal/gcn"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// traceCase is one whole run whose GCN action sequence is pinned: grids of
// both protocols, an 80-node RGG under each collision-resolution rule, and
// a churn run on an SINR channel.
type traceCase struct {
	name    string
	build   func(t *testing.T) *Network
	actions int
	digest  string
}

func traceCases() []traceCase {
	onGrid := func(side int, cfg Config) func(*testing.T) *Network {
		return func(t *testing.T) *Network {
			t.Helper()
			net, err := NewNetwork(grid(t, side), topo.GridCentre(side), topo.GridTopLeft(), cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
	}
	onRGG := func(fast bool) func(*testing.T) *Network {
		return func(t *testing.T) *Network {
			t.Helper()
			side := math.Sqrt(80) * topo.DefaultSpacing
			g, err := topo.RandomGeometric(80, side, side, 1.8*topo.DefaultSpacing, 7)
			if err != nil {
				t.Fatal(err)
			}
			sink := g.Nearest(topo.Point{X: side / 2, Y: side / 2})
			cfg := DefaultSLP(3)
			cfg.FastCollisionResolve = fast
			net, err := NewNetwork(g, sink, g.HopFarthest(sink, 0), cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
	}
	churn := func(t *testing.T) *Network {
		t.Helper()
		cfg := DefaultSLP(3)
		cfg.Channel = "logdist:2.4:4@sinr:3"
		var err error
		if cfg.Faults, err = fault.Parse("churn:0.15:2"); err != nil {
			t.Fatal(err)
		}
		return onGrid(11, cfg)(t)
	}
	return []traceCase{
		{"grid7-protectionless", onGrid(7, Default()),
			2719, "8b2dd91f766acbf7dc91425c46cb9b21c9f925c75fb5da6dff0eb9e4618f5b5c"},
		{"grid7-slp-das", onGrid(7, DefaultSLP(3)),
			3986, "4bec7f6d8bc3c5c5901db76c4a5cbc9b9fabab77fb0b64e1a590697e401fd65e"},
		{"grid11-protectionless", onGrid(11, Default()),
			14134, "4fc38f79512ab30461ea761665f04cfe8919ff57f332daf867b81316b1d44c91"},
		{"grid11-slp-das", onGrid(11, DefaultSLP(3)),
			14365, "eaed7ce5b0649acfc5a23a6c52cf4532c4bacff961d7b73be22366238ced716e"},
		{"rgg80-unit-decrement", onRGG(false),
			18524, "5918994577233467e21f3434a87e3e004b5552e65f29c067a8192bb1e1e83802"},
		{"rgg80-fast-resolve", onRGG(true),
			16565, "32a21d716ae6aa5605ee3f14d81e20d549d13be1c2c08e1626d93cc8e1bcfd6e"},
		{"grid11-sinr-churn", churn,
			16066, "9a072cacfc4239eebe37aa63f2634c25c9a53cb361f711220aaa5af161dc5c16"},
	}
}

// TestActionTraceGolden pins the (simulated time, node, action name)
// sequence every executed GCN action reports through Engine.OnAction.
// Result digests only see the state a run ends in; an action that fires
// in a different order but converges to the same schedule shows up here.
func TestActionTraceGolden(t *testing.T) {
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build(t)
			h := sha256.New()
			var rec [12]byte
			actions := 0
			net.engine.OnAction = func(p *gcn.Process[*node], name string) {
				binary.LittleEndian.PutUint64(rec[:8], uint64(net.sim.Now()))
				binary.LittleEndian.PutUint32(rec[8:], uint32(p.ID()))
				h.Write(rec[:])
				h.Write([]byte(name))
				h.Write([]byte{0})
				actions++
			}
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			digest := hex.EncodeToString(h.Sum(nil))
			if actions != tc.actions || digest != tc.digest {
				t.Errorf("trace = %d actions, sha256 %s; want %d, %s", actions, digest, tc.actions, tc.digest)
			}
		})
	}
}

// runCheckingActors runs net and calls check on the acting node after
// each action it executes. Only a node's own actions write its state, so
// the previous actor is the one node that can have changed since the last
// check; every node is checked once more when the run ends.
//
// It also wraps the medium's receiver to check every delivery the receive
// path hands a node program, of every frame type: the rank row receive
// picked for the edge must place the sender, as the medium names it, in
// the receiver's Ninfo table, since the receive actions mark the sender's
// relation bits through that place. It returns the deliveries checked, by
// frame type.
func runCheckingActors(t *testing.T, net *Network, check func(nd *node)) (delivered [msgStatsSlots]int) {
	t.Helper()
	misplaced := 0
	net.medium.SetReceiver(func(frame uint64, from, to topo.NodeID, edge int, payload []byte) {
		net.receive(frame, from, to, edge, payload)
		if net.decMsg == nil {
			return // undecodable: never reaches the node program
		}
		delivered[net.decMsg.Kind()]++
		nd := &net.nodes[to]
		if got := nd.ninfo.ids[net.decRow[0]]; got != from && misplaced < 5 {
			misplaced++
			t.Errorf("t=%v %v frame %d→%d: rank row places the sender at node %d", net.sim.Now(), net.decMsg.Kind(), from, to, got)
		}
	})
	var last *node
	net.engine.OnAction = func(p *gcn.Process[*node], _ string) {
		if last != nil {
			check(last)
		}
		last = &net.nodes[p.ID()]
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		check(nd)
	}
	return delivered
}

// TestCachedResolveGuardMatchesFreshScan runs the traced runs and checks,
// after every executed action, that the acting node's cached answer to the
// resolve guard — wherever the info table claims it valid — equals a fresh
// collisionLoser scan.
func TestCachedResolveGuardMatchesFreshScan(t *testing.T) {
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build(t)
			clean, failures := 0, 0
			runCheckingActors(t, net, func(nd *node) {
				if !nd.dirty {
					clean++
					if fresh := nd.collisionLoser(); nd.loser != fresh && failures < 5 {
						failures++
						t.Errorf("t=%v node %d: cached collision loser %d, fresh scan %d", net.sim.Now(), nd.id, nd.loser, fresh)
					}
				}
			})
			if clean == 0 {
				t.Error("no check saw a valid cache: the guard never cached an answer")
			}
		})
	}
}

// TestRelationBitsNameNeighbours runs the traced runs and checks, after
// every executed action, that each relation bit the acting node holds
// names a graph neighbour, and that a potential parent or a child is also
// a discovered neighbour: the receive actions only ever mark the sender of
// a delivered frame, placed by the edge's rank row. Across the runs,
// frames of all five types must reach the receive path, whose rank rows
// runCheckingActors checks on every delivery.
func TestRelationBitsNameNeighbours(t *testing.T) {
	var delivered [msgStatsSlots]int
	ran := 0
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build(t)
			marked, failures := 0, 0
			got := runCheckingActors(t, net, func(nd *node) {
				for k, r := range nd.ninfo.rels {
					if r == 0 {
						continue
					}
					marked++
					peer := nd.ninfo.ids[k]
					stray := !net.g.HasEdge(nd.id, peer) || (r&(relParent|relChild) != 0 && r&relNeighbour == 0)
					if stray && failures < 5 {
						failures++
						t.Errorf("t=%v node %d: relation bits %04b to node %d", net.sim.Now(), nd.id, r, peer)
					}
				}
			})
			if marked == 0 {
				t.Error("no check saw a relation bit")
			}
			for k, c := range got {
				delivered[k] += c
			}
			ran++
		})
	}
	if ran < len(traceCases()) {
		return // a -run filter left some runs out
	}
	for _, k := range []wire.Type{wire.TypeHello, wire.TypeDissem, wire.TypeSearch, wire.TypeChange, wire.TypeData} {
		if delivered[k] == 0 {
			t.Errorf("no %v frame was delivered in the traced runs", k)
		}
	}
}
