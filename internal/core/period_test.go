package core

import (
	"testing"
	"time"

	"slpdas/internal/energy"
	"slpdas/internal/radio"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// dataSend is one DATA frame a node broadcast: the instant it keyed up and
// the sequence number it carries.
type dataSend struct {
	at  time.Duration
	seq uint32
}

// intoDataPhase runs the 11×11 network through setup, starts its data
// phase and records every DATA frame broadcast from then on, by sender,
// when its first reception decodes it. The attacker starts ten hops from
// the source and moves at most one hop a period, so no capture stops the
// first ten periods.
func intoDataPhase(t *testing.T, cfg Config) (*Network, map[topo.NodeID][]dataSend) {
	t.Helper()
	const side = 11
	net, err := NewNetwork(grid(t, side), topo.GridCentre(side), topo.GridTopLeft(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.runSetup(); err != nil {
		t.Fatal(err)
	}
	if err := net.startDataPhase(); err != nil {
		t.Fatal(err)
	}
	sends := map[topo.NodeID][]dataSend{}
	net.medium.SetReceiver(func(first bool, from, to topo.NodeID, edge int, payload []byte) {
		net.receive(first, from, to, edge, payload)
		if d, ok := net.decMsg.(*wire.Data); ok && first {
			at := net.sim.Now() - net.medium.Airtime(len(payload)) - radio.DefaultPropagationDelay
			sends[from] = append(sends[from], dataSend{at: at, seq: d.Seq})
		}
	})
	return net, sends
}

// periodTime returns the instant offset into the data phase's period k.
func periodTime(net *Network, k int, offset time.Duration) time.Duration {
	return net.dataStart + time.Duration(k)*net.period + offset
}

// scheduleAt runs fn at the given instant of the run.
func scheduleAt(t *testing.T, net *Network, when time.Duration, fn func()) {
	t.Helper()
	if _, err := net.sim.Schedule(when, fn); err != nil {
		t.Fatal(err)
	}
}

// runPeriods runs the data phase's first k periods. A DATA frame is on
// the air for under a millisecond, well inside its slot, so every frame
// they send is recorded by the end.
func runPeriods(t *testing.T, net *Network, k int) {
	t.Helper()
	if err := net.sim.RunUntil(periodTime(net, k, -time.Nanosecond)); err != nil {
		t.Fatal(err)
	}
}

// wantSends checks that node id sent in exactly the given periods, each
// time at its slot's offset, and, for the source, with the
// period index as its sequence number. A crashed node's radio drops what
// it sends, but fireDataSlot stamps dataPeriod first, so a dead node that
// still tried to send in a later period shows there.
func wantSends(t *testing.T, net *Network, sends map[topo.NodeID][]dataSend, id topo.NodeID, periods []int, slots []int32) {
	t.Helper()
	got := sends[id]
	if len(got) != len(periods) {
		t.Fatalf("node %d sent %d DATA frames, want %d (periods %v): %v", id, len(got), len(periods), periods, got)
	}
	for i, p := range periods {
		want := periodTime(net, p, time.Duration(slots[i])*net.cfg.SlotPeriod)
		if got[i].at != want {
			t.Errorf("node %d's frame %d keyed up at %v, want %v (period %d, slot %d)", id, i, got[i].at, want, p, slots[i])
		}
		if id == net.source && got[i].seq != uint32(p) {
			t.Errorf("source's frame %d carries seq %d, want period %d", i, got[i].seq, p)
		}
	}
	if last := periods[len(periods)-1]; net.nodes[id].dataPeriod != last {
		t.Errorf("node %d last tried to send in period %d, want %d", id, net.nodes[id].dataPeriod, last)
	}
}

// TestSlotFiresAtOffsetEveryPeriod: every node holding a valid slot sends
// one DATA frame per period at dataStart + k·P + slot·SlotPeriod, the
// source's carrying k, and a node without one, the sink with its slot Δ
// among them, sends none.
func TestSlotFiresAtOffsetEveryPeriod(t *testing.T) {
	net, sends := intoDataPhase(t, Default())
	const periods = 3
	runPeriods(t, net, periods)
	silent := 0
	for i := range net.nodes {
		nd := &net.nodes[i]
		if nd.slot < 0 || int(nd.slot) >= net.cfg.Slots {
			silent++
			if got := sends[nd.id]; len(got) != 0 {
				t.Errorf("node %d holds invalid slot %d but sent %v", nd.id, nd.slot, got)
			}
			continue
		}
		s := nd.slot
		wantSends(t, net, sends, nd.id, []int{0, 1, 2}, []int32{s, s, s})
	}
	if net.nodes[net.sink].slot != int32(net.cfg.Slots) {
		t.Errorf("sink holds slot %d, want Δ = %d", net.nodes[net.sink].slot, net.cfg.Slots)
	}
	if silent != 1 {
		t.Errorf("%d nodes hold no valid slot, want the sink alone", silent)
	}
}

// TestSlotReadAtEveryBoundary: a node reads its slot at each period
// boundary, so a change made inside a period takes effect at the next
// one.
func TestSlotReadAtEveryBoundary(t *testing.T) {
	net, sends := intoDataPhase(t, Default())
	src := &net.nodes[net.source]
	s := src.slot
	if s <= 0 {
		t.Fatalf("source holds slot %d; the test needs one above 0", s)
	}
	scheduleAt(t, net, periodTime(net, 0, time.Nanosecond), func() { src.slot = 0 })
	runPeriods(t, net, 3)
	wantSends(t, net, sends, net.source, []int{0, 1, 2}, []int32{s, 0, 0})
}

// TestSlotInvalidSkipsPeriod: a node that holds no slot in [0, Slots) at
// a period's boundary sends nothing in that period, and sends again once
// it holds one; the range's two ends are slots it sends in.
func TestSlotInvalidSkipsPeriod(t *testing.T) {
	slots := int32(Default().Slots)
	for _, tc := range []struct {
		slot int32
		sent bool
	}{{noValue, false}, {slots, false}, {0, true}, {slots - 1, true}} {
		net, sends := intoDataPhase(t, Default())
		src := &net.nodes[net.source]
		s := src.slot
		scheduleAt(t, net, periodTime(net, 0, time.Nanosecond), func() { src.slot = tc.slot })
		scheduleAt(t, net, periodTime(net, 1, time.Nanosecond), func() { src.slot = s })
		runPeriods(t, net, 3)
		if tc.sent {
			wantSends(t, net, sends, net.source, []int{0, 1, 2}, []int32{s, tc.slot, s})
		} else {
			wantSends(t, net, sends, net.source, []int{0, 2}, []int32{s, s})
		}
	}
}

// TestSlotSilentWhileCrashed: a crashed node's periods pass in silence,
// but its boundaries keep coming, so after it recovers it sends in its
// slot again and the source's sequence numbers stay the clock's periods.
func TestSlotSilentWhileCrashed(t *testing.T) {
	net, sends := intoDataPhase(t, Default())
	src := &net.nodes[net.source]
	s := src.slot
	// Down for periods 2 and 3. A rejoining node re-acquires its slot from
	// its neighbours; the test hands it back at once.
	scheduleAt(t, net, periodTime(net, 2, -time.Nanosecond), func() { net.crashNode(net.source) })
	scheduleAt(t, net, periodTime(net, 4, -time.Nanosecond), func() {
		net.recoverNode(net.source)
		src.slot = s
	})
	runPeriods(t, net, 6)
	wantSends(t, net, sends, net.source, []int{0, 1, 4, 5}, []int32{s, s, s, s})
}

// TestSlotSilencedByCrashBeforeIt: a node that crashes between a period's
// boundary and its slot sends nothing in that period.
func TestSlotSilencedByCrashBeforeIt(t *testing.T) {
	net, sends := intoDataPhase(t, Default())
	s := net.nodes[net.source].slot
	if s <= 0 {
		t.Fatalf("source holds slot %d; the test needs one above 0", s)
	}
	scheduleAt(t, net, periodTime(net, 1, time.Nanosecond), func() { net.crashNode(net.source) })
	runPeriods(t, net, 3)
	wantSends(t, net, sends, net.source, []int{0}, []int32{s})
}

// TestSlotSilencedByIdleChargeDeath: a battery the boundary's idle charge
// drains kills the node at the boundary, and it sends nothing in that
// period.
func TestSlotSilencedByIdleChargeDeath(t *testing.T) {
	cfg := Default()
	cfg.Energy = energy.Spec{Capacity: 1000, TxCost: energy.DefaultTxCost, RxCost: energy.DefaultRxCost, IdleCost: energy.DefaultIdleCost}
	net, sends := intoDataPhase(t, cfg)
	// The source is mains-powered; its neighbour is not.
	id := topo.GridIndex(11, 0, 1)
	nd := &net.nodes[id]
	s := nd.slot
	scheduleAt(t, net, periodTime(net, 1, -time.Nanosecond), func() {
		nd.energyUsed = cfg.Energy.Capacity - cfg.Energy.IdleCost/2
	})
	runPeriods(t, net, 3)
	if !nd.energyDead || net.firstDeathAt != periodTime(net, 1, 0) {
		t.Fatalf("node %d: energyDead %v, first death at %v; want a death at period 1's boundary, %v", id, nd.energyDead, net.firstDeathAt, periodTime(net, 1, 0))
	}
	wantSends(t, net, sends, id, []int{0}, []int32{s})
}
