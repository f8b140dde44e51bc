package radio

import (
	"hash/fnv"
	"testing"
	"time"
	"unsafe"

	"slpdas/internal/channel"
	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// TestRecycledFrameCorruptsLikeFreshReceptions replays every ordered pair
// of overlapping transmissions on a small random geometric graph, each time
// after a lone broadcast by the graph's lowest-degree node has left a frame
// with a short reception slice in the pool. The first sender of the pair
// reuses that frame, so its receptions only stay reachable through
// rxLatest if the slice was sized to the sender's degree before any
// reception's address was taken. The wanted delivery digest and counters
// are those of a medium that schedules each reception as its own pooled
// event, under binary collisions and under SINR capture alike.
func TestRecycledFrameCorruptsLikeFreshReceptions(t *testing.T) {
	g, err := topo.RandomGeometric(16, 20, 20, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	low := topo.NodeID(0)
	for n := topo.NodeID(1); int(n) < g.Len(); n++ {
		if len(g.Neighbors(n)) < len(g.Neighbors(low)) {
			low = n
		}
	}
	sinr, err := channel.Parse("logdist:2.4:0@sinr:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		ch         channel.Model
		collisions bool
		digest     uint64
		want       Stats
	}{
		{"collisions", channel.Ideal{}, true, 0x4ac2ded0975ed315, Stats{Broadcasts: 720, Deliveries: 1784, CollisionDrops: 856}},
		{"sinr", sinr, false, 0x990fbb65ac4d15b2, Stats{Broadcasts: 720, Deliveries: 2046, CollisionDrops: 428, CaptureWins: 262, SINRDrops: 166}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			m := New(sim, g, 1)
			h := fnv.New64a()
			pair := 0
			m.SetReceiver(func(_ bool, from, to topo.NodeID, _ int, _ []byte) {
				h.Write([]byte{byte(pair), byte(pair >> 8), byte(to), byte(from)})
			})
			var total Stats
			for a := topo.NodeID(0); int(a) < g.Len(); a++ {
				for b := topo.NodeID(0); int(b) < g.Len(); b++ {
					if a == b {
						continue
					}
					sim.Reset()
					m.Reset(1, tc.ch, tc.collisions, nil)
					sim.ScheduleAfter(0, func() { m.Broadcast(low, []byte{1}) })
					sim.ScheduleAfter(time.Second, func() { m.Broadcast(a, make([]byte, 40)) })
					sim.ScheduleAfter(time.Second+500*time.Microsecond, func() { m.Broadcast(b, make([]byte, 8)) })
					if err := sim.Run(); err != nil {
						t.Fatal(err)
					}
					st := m.Stats()
					total.Broadcasts += st.Broadcasts
					total.Deliveries += st.Deliveries
					total.CollisionDrops += st.CollisionDrops
					total.SINRDrops += st.SINRDrops
					total.CaptureWins += st.CaptureWins
					pair++
				}
			}
			if got := h.Sum64(); got != tc.digest || total != tc.want {
				t.Errorf("digest %#x stats %+v, want %#x %+v", got, total, tc.digest, tc.want)
			}
		})
	}
}

// TestFrameRunsReceiversInNeighbourOrderThenScan: one frame event calls its
// receivers in the sender's neighbour order and only then lets the
// eavesdropper overhear it, and two frames ending at the same instant run
// whole, one after the other, in broadcast order.
func TestFrameRunsReceiversInNeighbourOrderThenScan(t *testing.T) {
	sim, g, m := newTestMedium(t, 5)
	var log []topo.NodeID
	const scan = topo.NodeID(-2)
	m.SetReceiver(func(_ bool, _, to topo.NodeID, _ int, _ []byte) { log = append(log, to) })
	// The observer sits between the two senders and hears both.
	m.AddObserver(logObserver{pos: g.Position(topo.GridIndex(5, 1, 2)), log: &log, mark: scan})
	first, second := topo.GridCentre(5), topo.GridIndex(5, 0, 2)
	sim.ScheduleAfter(0, func() {
		m.Broadcast(first, []byte{1})
		m.Broadcast(second, []byte{2})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var want []topo.NodeID
	want = append(append(want, g.Neighbors(first)...), scan)
	want = append(append(want, g.Neighbors(second)...), scan)
	if len(log) != len(want) {
		t.Fatalf("call order %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("call order %v, want %v", log, want)
		}
	}
}

type logObserver struct {
	pos  topo.Point
	log  *[]topo.NodeID
	mark topo.NodeID
}

func (o logObserver) Location() topo.Point { return o.pos }
func (o logObserver) Overhear(Observation) { *o.log = append(*o.log, o.mark) }

// rxKillMeter depletes one node's battery on its own reception charge, the
// way core.Network's battery does.
type rxKillMeter struct {
	m       *Medium
	victim  topo.NodeID
	charged []topo.NodeID
}

func (em *rxKillMeter) ChargeTx(topo.NodeID, int) {}

func (em *rxKillMeter) ChargeRx(n topo.NodeID, _ int) {
	em.charged = append(em.charged, n)
	if n == em.victim {
		em.m.DisableNode(n)
	}
}

// TestReceiverDyingOnChargeRxSparesLaterReceivers: within one frame, a
// receiver whose battery dies on its own reception charge pays for the
// frame but does not consume it, and the receivers after it in the same
// frame are charged and served as usual.
func TestReceiverDyingOnChargeRxSparesLaterReceivers(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	centre := topo.GridCentre(5)
	nbrs := g.Neighbors(centre)
	em := &rxKillMeter{victim: nbrs[1]}
	m := New(sim, g, 1)
	m.Reset(1, nil, false, em)
	em.m = m
	got := map[topo.NodeID]int{}
	m.SetReceiver(func(_ bool, _, to topo.NodeID, _ int, _ []byte) { got[to]++ })
	sim.ScheduleAfter(0, func() { m.Broadcast(centre, []byte{1, 2}) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(em.charged) != len(nbrs) {
		t.Errorf("ChargeRx for %v, want every neighbour %v", em.charged, nbrs)
	}
	for i, n := range nbrs {
		want := 1
		if i == 1 {
			want = 0
		}
		if got[n] != want {
			t.Errorf("neighbour %d consumed %d frames, want %d", n, got[n], want)
		}
	}
	if st := m.Stats(); st.Deliveries != uint64(len(nbrs)-1) {
		t.Errorf("Deliveries = %d, want %d", st.Deliveries, len(nbrs)-1)
	}
}

// TestDeliveredCandidateLeavesNoStaleRxLatest: under SINR capture the
// strongest reception of a window can be delivered while a weaker, longer
// one keeps the window open. Its frame then goes back to the pool, and the
// next broadcast reuses it with the same receiver in the same reception
// slot. Clearing rxLatest when the candidate runs is what keeps a stronger
// newcomer from corrupting itself through the stale pointer: it must be
// captured.
func TestDeliveredCandidateLeavesNoStaleRxLatest(t *testing.T) {
	// Receiver 0 hears the strong sender 1 at 4 m, the weak sender 2 at
	// 8.5 m and the newcomer 3 at 2 m; 3 does not hear 2.
	g, err := topo.NewGraph("sinr-stale", []topo.Point{{X: 0}, {X: 4}, {X: 8.5}, {X: -2}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.Parse("logdist:2.4:0@sinr:3")
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, ch, false, nil)
	var got []topo.NodeID
	m.SetReceiver(receiverAt(0, func(_ bool, from topo.NodeID, _ []byte) { got = append(got, from) }))
	sim.ScheduleAfter(0, func() {
		m.Broadcast(1, []byte{1})
		m.Broadcast(2, make([]byte, 100))
	})
	sim.ScheduleAfter(time.Millisecond, func() { m.Broadcast(3, []byte{3}) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("receiver 0 got frames from %v, want [1 3]", got)
	}
	if st := m.Stats(); st.CaptureWins != 2 {
		t.Errorf("CaptureWins = %d, want 2", st.CaptureWins)
	}
}

// TestReceiverEdgeIndexesSendersNeighbours checks every receiver call
// against the graph: the edge it names is the receiver's index among the
// sender's neighbours, and one frame's calls arrive back to back, in
// ascending edge order, the first flagged first and no other. Every node
// broadcasts once, so the sender names the frame, in overlapping waves on
// an 11×11 grid and a 500-node random geometric graph, under an ideal
// channel, under loss with collisions, and under SINR capture. One node
// is disabled and one link downed, so some frames skip a neighbour and
// their later receptions' edges run ahead of their places in the frame.
func TestReceiverEdgeIndexesSendersNeighbours(t *testing.T) {
	grid, err := topo.DefaultGrid(11)
	if err != nil {
		t.Fatal(err)
	}
	rgg, err := topo.RandomGeometric(500, 100, 100, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topo.Graph{grid, rgg} {
		for _, tc := range []struct {
			channel    string
			collisions bool
		}{
			{"ideal", false},
			{"bernoulli:0.3", true},
			{"logdist:2.4:4@sinr:3", false},
		} {
			t.Run(g.Name()+"/"+tc.channel, func(t *testing.T) {
				ch, err := channel.Parse(tc.channel)
				if err != nil {
					t.Fatal(err)
				}
				sim := des.New()
				m := New(sim, g, 1)
				m.Reset(1, ch, tc.collisions, nil)
				// Down the link from node 0 to its first neighbour and
				// disable node 1's first neighbour (not node 0).
				m.DisableLink(0, g.Neighbors(0)[0])
				off := g.Neighbors(1)[0]
				if off == 0 {
					off = g.Neighbors(1)[1]
				}
				m.DisableNode(off)

				lastFrom := topo.None
				delivered := make(map[topo.NodeID]bool) // frames with a reception
				lastEdge, place, calls, firsts, skipped, bad := -1, 0, 0, 0, 0, 0
				m.SetReceiver(func(first bool, from, to topo.NodeID, edge int, _ []byte) {
					calls++
					if first {
						firsts++
						lastFrom, lastEdge, place = from, -1, 0
					}
					delivered[from] = true
					nbrs := g.Neighbors(from)
					if from != lastFrom || edge < 0 || edge >= len(nbrs) || nbrs[edge] != to || edge <= lastEdge {
						if bad++; bad <= 5 {
							t.Errorf("%d→%d (first %v): edge %d after edge %d of frame from %d, sender's neighbours %v", from, to, first, edge, lastEdge, lastFrom, nbrs)
						}
					}
					if edge != place {
						skipped++
					}
					lastEdge = edge
					place++
				})
				for n := topo.NodeID(0); int(n) < g.Len(); n++ {
					// Waves of 16 senders 300 µs apart overlap at shared
					// receivers, so collisions and capture both fire.
					at := time.Duration(n/16)*10*time.Millisecond + time.Duration(n%16)*300*time.Microsecond
					sim.ScheduleAfter(at, func() { m.Broadcast(n, make([]byte, 24)) })
				}
				if err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				st := m.Stats()
				if calls == 0 || uint64(calls) != st.Deliveries {
					t.Errorf("%d receiver calls, Deliveries = %d", calls, st.Deliveries)
				}
				if firsts != len(delivered) {
					t.Errorf("%d calls flagged first, %d frames delivered a reception", firsts, len(delivered))
				}
				if skipped == 0 {
					t.Error("no frame skipped a neighbour: no edge differed from its reception's place")
				}
				if tc.channel != "ideal" && st.LossDrops+st.CollisionDrops+st.SINRDrops == 0 {
					t.Errorf("%s dropped nothing: %+v", tc.channel, st)
				}
			})
		}
	}
}

// TestReceptionStaysSixteenBytes: the edge index rides in the padding of
// a reception, so the frame's reception slice, walked once at delivery,
// does not grow with it.
func TestReceptionStaysSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(reception{}); size != 16 {
		t.Errorf("reception is %d bytes, want 16", size)
	}
}
