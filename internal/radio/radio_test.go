package radio

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"slpdas/internal/channel"
	"slpdas/internal/des"
	"slpdas/internal/topo"
	"slpdas/internal/xrand"
)

// receiverAt returns a receiver that hands f the receptions at node n and
// ignores every other.
func receiverAt(n topo.NodeID, f func(first bool, from topo.NodeID, payload []byte)) Receiver {
	return func(first bool, from, to topo.NodeID, _ int, payload []byte) {
		if to == n {
			f(first, from, payload)
		}
	}
}

func newTestMedium(t *testing.T, side int) (*des.Simulator, *topo.Graph, *Medium) {
	t.Helper()
	g, err := topo.DefaultGrid(side)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sim := des.New()
	return sim, g, New(sim, g, 1)
}

func TestBroadcastReachesOnlyNeighbours(t *testing.T) {
	sim, g, m := newTestMedium(t, 5)
	received := make(map[topo.NodeID][]byte)
	m.SetReceiver(func(_ bool, _, to topo.NodeID, _ int, payload []byte) {
		received[to] = payload
	})
	centre := topo.GridIndex(5, 2, 2)
	sim.ScheduleAfter(0, func() { m.Broadcast(centre, []byte{1, 2, 3}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(received) != 4 {
		t.Fatalf("received by %d nodes, want the 4 cardinal neighbours", len(received))
	}
	for _, n := range g.Neighbors(centre) {
		if string(received[n]) != "\x01\x02\x03" {
			t.Errorf("neighbour %d payload = %v", n, received[n])
		}
	}
	if _, self := received[centre]; self {
		t.Error("sender received its own broadcast")
	}
}

func TestAirtimeScalesWithPayload(t *testing.T) {
	_, _, m := newTestMedium(t, 3)
	small := m.Airtime(10)
	big := m.Airtime(100)
	if big <= small {
		t.Errorf("airtime(100)=%v <= airtime(10)=%v", big, small)
	}
	// 100 bytes at 250kbps = 3.2ms payload time plus overhead.
	want := DefaultFrameOverhead + 3200*time.Microsecond
	if big != want {
		t.Errorf("airtime(100) = %v, want %v", big, want)
	}
}

func TestDeliveryDelayedByAirtime(t *testing.T) {
	sim, _, m := newTestMedium(t, 3)
	var deliveredAt time.Duration
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { deliveredAt = sim.Now() }))
	payload := make([]byte, 50)
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := m.Airtime(50) + DefaultPropagationDelay
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestBernoulliLossRate(t *testing.T) {
	g, err := topo.Line(2, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, channel.Bernoulli{P: 0.3}, false, nil)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	const trials = 5000
	for i := 0; i < trials; i++ {
		at := time.Duration(i) * time.Second
		if _, err := sim.Schedule(at, func() { m.Broadcast(0, []byte{9}) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rate := float64(delivered) / trials
	if math.Abs(rate-0.7) > 0.03 {
		t.Errorf("delivery rate = %.3f, want ≈0.70", rate)
	}
	if m.Stats().LossDrops != uint64(trials-delivered) {
		t.Errorf("LossDrops = %d, want %d", m.Stats().LossDrops, trials-delivered)
	}
}

func TestIdealLossless(t *testing.T) {
	sim, _, m := newTestMedium(t, 2)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		if _, err := sim.Schedule(at, func() { m.Broadcast(0, []byte{1}) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 100 {
		t.Errorf("delivered = %d, want 100", delivered)
	}
}

func TestRSSINoiseMonotonicInDistance(t *testing.T) {
	var model channel.RSSI
	r := xrand.NewNamed(3, "rssi-test")
	lossAt := func(d float64) float64 {
		lost := 0
		const trials = 4000
		for i := 0; i < trials; i++ {
			if model.Lost(d, r) {
				lost++
			}
		}
		return float64(lost) / trials
	}
	near := lossAt(4.5)
	far := lossAt(30)
	if near > 0.05 {
		t.Errorf("loss at 4.5m = %.3f, want <5%%", near)
	}
	if far < near {
		t.Errorf("loss at 30m (%.3f) < loss at 4.5m (%.3f); want monotone increase", far, near)
	}
}

func TestCollisionCorruptsBothFrames(t *testing.T) {
	// Line 0-1-2: node 1 hears both 0 and 2. Simultaneous transmissions
	// must collide at 1 but node 0 and 2 (each hearing only one frame)
	// still receive.
	g, err := topo.Line(3, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, nil, true, nil)
	got := map[topo.NodeID]int{}
	m.SetReceiver(func(_ bool, _, to topo.NodeID, _ int, _ []byte) { got[to]++ })
	sim.ScheduleAfter(0, func() {
		m.Broadcast(0, make([]byte, 20))
		m.Broadcast(2, make([]byte, 20))
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[1] != 0 {
		t.Errorf("middle node received %d frames, want 0 (collision)", got[1])
	}
	if m.Stats().CollisionDrops != 2 {
		t.Errorf("CollisionDrops = %d, want 2", m.Stats().CollisionDrops)
	}
}

func TestNoCollisionWhenSeparatedInTime(t *testing.T) {
	g, err := topo.Line(3, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, nil, true, nil)
	count := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { count++ }))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, make([]byte, 20)) })
	sim.ScheduleAfter(time.Second, func() { m.Broadcast(2, make([]byte, 20)) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 2 {
		t.Errorf("received %d, want 2 (no temporal overlap)", count)
	}
}

func TestThreeTransmissionTailOverlap(t *testing.T) {
	// Node 4 (centre of a 3×3 grid) hears three receptions:
	//
	//	A (long)  |------------------|
	//	B (short)    |----|
	//	C (late)            |----|
	//
	// A↔B overlap, so both are corrupted. C starts after B has already
	// ended but still inside A's tail, so C and A are corrupted — C must
	// not be charged against the (already delivered) B, and B's earlier
	// corruption must not leak onto receptions that never overlapped it.
	// All three frames die; CollisionDrops counts each one.
	g, err := topo.DefaultGrid(3)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, nil, true, nil)
	centre := topo.GridIndex(3, 1, 1)
	got := 0
	m.SetReceiver(receiverAt(centre, func(bool, topo.NodeID, []byte) { got++ }))
	// Fail the corner nodes so the three senders' frames meet only at the
	// centre and the global drop counter isolates that receiver.
	for _, corner := range []topo.NodeID{0, 2, 6, 8} {
		m.DisableNode(corner)
	}
	n := g.Neighbors(centre) // 4 cardinal neighbours, sorted

	// A: 500 bytes ≈ 16.2 ms airtime. B at 2 ms: 100 bytes ≈ 3.4 ms.
	// C at 8 ms (after B ended at ~5.4 ms, inside A's tail): 100 bytes.
	sim.ScheduleAfter(0, func() { m.Broadcast(n[0], make([]byte, 500)) })
	sim.ScheduleAfter(2*time.Millisecond, func() { m.Broadcast(n[1], make([]byte, 100)) })
	sim.ScheduleAfter(8*time.Millisecond, func() { m.Broadcast(n[2], make([]byte, 100)) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Errorf("centre received %d frames, want 0 (all three overlap pairwise with A)", got)
	}
	if drops := m.Stats().CollisionDrops; drops != 3 {
		t.Errorf("CollisionDrops = %d, want 3", drops)
	}
}

func TestTailTransmissionAfterWindowCloses(t *testing.T) {
	// Same shape, but C starts after A's window has fully closed: C must
	// arrive clean even though the collision state at the receiver was
	// touched twice before.
	g, err := topo.DefaultGrid(3)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, nil, true, nil)
	centre := topo.GridIndex(3, 1, 1)
	got := 0
	m.SetReceiver(receiverAt(centre, func(bool, topo.NodeID, []byte) { got++ }))
	for _, corner := range []topo.NodeID{0, 2, 6, 8} {
		m.DisableNode(corner)
	}
	n := g.Neighbors(centre)

	sim.ScheduleAfter(0, func() { m.Broadcast(n[0], make([]byte, 500)) })
	sim.ScheduleAfter(2*time.Millisecond, func() { m.Broadcast(n[1], make([]byte, 100)) })
	sim.ScheduleAfter(30*time.Millisecond, func() { m.Broadcast(n[2], make([]byte, 100)) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Errorf("centre received %d frames, want 1 (only the late clean frame)", got)
	}
	if drops := m.Stats().CollisionDrops; drops != 2 {
		t.Errorf("CollisionDrops = %d, want 2", drops)
	}
}

func TestCollisionsDisabledByDefault(t *testing.T) {
	g, err := topo.Line(3, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	count := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { count++ }))
	sim.ScheduleAfter(0, func() {
		m.Broadcast(0, make([]byte, 20))
		m.Broadcast(2, make([]byte, 20))
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 2 {
		t.Errorf("received %d, want 2 with collisions disabled", count)
	}
}

type fixedObserver struct {
	pos  topo.Point
	seen []Observation
}

func (o *fixedObserver) Location() topo.Point    { return o.pos }
func (o *fixedObserver) Overhear(ob Observation) { o.seen = append(o.seen, ob) }

type nopObserver struct{ pos topo.Point }

func (o nopObserver) Location() topo.Point { return o.pos }
func (o nopObserver) Overhear(Observation) {}

func TestObserverHearsOnlyInRange(t *testing.T) {
	sim, g, m := newTestMedium(t, 5)
	nearSink := &fixedObserver{pos: g.Position(topo.GridIndex(5, 2, 2))}
	farAway := &fixedObserver{pos: topo.Point{X: 1000, Y: 1000}}
	m.AddObserver(nearSink)
	m.AddObserver(farAway)
	// A neighbour of the centre transmits.
	sim.ScheduleAfter(0, func() { m.Broadcast(topo.GridIndex(5, 2, 1), []byte{1, 2}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(nearSink.seen) != 1 {
		t.Fatalf("near observer heard %d transmissions, want 1", len(nearSink.seen))
	}
	obs := nearSink.seen[0]
	if obs.From != topo.GridIndex(5, 2, 1) || obs.Bytes != 2 {
		t.Errorf("observation = %+v", obs)
	}
	if len(farAway.seen) != 0 {
		t.Errorf("far observer heard %d transmissions, want 0", len(farAway.seen))
	}
}

func TestObserverHearsColocatedSender(t *testing.T) {
	sim, g, m := newTestMedium(t, 5)
	at := topo.GridIndex(5, 1, 1)
	obs := &fixedObserver{pos: g.Position(at)}
	m.AddObserver(obs)
	sim.ScheduleAfter(0, func() { m.Broadcast(at, []byte{7}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(obs.seen) != 1 {
		t.Errorf("co-located observer heard %d, want 1 (hears the node it sits at)", len(obs.seen))
	}
}

func TestMovingObserverJudgedAtTransmissionEnd(t *testing.T) {
	// Regression: audibility used to be evaluated against the observer's
	// position at transmit start while Observation.At is the transmission
	// end, so an observer relocating mid-frame was judged at a position it
	// no longer occupied. The convention (see Observer) is end-of-
	// transmission: where the observer is when the frame completes decides
	// whether it hears the frame.
	sim, g, m := newTestMedium(t, 5)
	sender := topo.GridIndex(5, 2, 2)
	inRange := g.Position(sender)
	outOfRange := topo.Point{X: 1000, Y: 1000}

	leaving := &fixedObserver{pos: inRange}
	arriving := &fixedObserver{pos: outOfRange}
	m.AddObserver(leaving)
	m.AddObserver(arriving)

	payload := make([]byte, 200) // several ms on the air
	sim.ScheduleAfter(0, func() { m.Broadcast(sender, payload) })
	// Mid-frame, the two observers swap positions.
	sim.ScheduleAfter(m.Airtime(len(payload))/2, func() {
		leaving.pos = outOfRange
		arriving.pos = inRange
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(leaving.seen) != 0 {
		t.Errorf("observer that left mid-frame heard %d transmissions, want 0", len(leaving.seen))
	}
	if len(arriving.seen) != 1 {
		t.Errorf("observer that arrived mid-frame heard %d transmissions, want 1", len(arriving.seen))
	}
	if len(arriving.seen) == 1 {
		want := m.Airtime(len(payload)) + DefaultPropagationDelay
		if arriving.seen[0].At != want {
			t.Errorf("Observation.At = %v, want transmission end %v", arriving.seen[0].At, want)
		}
	}
}

func TestObserverAddedMidFrameHearsFrame(t *testing.T) {
	// The observer set is read at transmission end, even when it was empty
	// when the frame was keyed up.
	sim, g, m := newTestMedium(t, 5)
	sender := topo.GridIndex(5, 2, 2)
	obs := &fixedObserver{pos: g.Position(sender)}
	payload := make([]byte, 200)
	sim.ScheduleAfter(0, func() { m.Broadcast(sender, payload) })
	sim.ScheduleAfter(m.Airtime(len(payload))/2, func() { m.AddObserver(obs) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(obs.seen) != 1 {
		t.Errorf("observer added mid-frame heard %d transmissions, want 1", len(obs.seen))
	}
}

// frameRecorder is a frame channel that records the link length of each
// call and loses a frame with probability loss, drawn from the shared
// stream; lost counts the frames it lost.
type frameRecorder struct {
	loss  float64
	dists []float64
	lost  int
}

func (*frameRecorder) Spec() string { return "frame-recorder" }

func (c *frameRecorder) Lost(dist float64, rng *rand.Rand) bool {
	c.dists = append(c.dists, dist)
	if rng.Float64() < c.loss {
		c.lost++
		return true
	}
	return false
}

// linkRecorder is a link channel that records the link length of each
// call and loses the links whose fade is negative; lost counts the links
// it lost. capture says whether it reports itself a capture channel.
type linkRecorder struct {
	capture bool
	dists   []float64
	lost    int
}

func (*linkRecorder) Spec() string { return "link-recorder" }

func (c *linkRecorder) RxPowerMW(dist, fade float64) (float64, bool) {
	c.dists = append(c.dists, dist)
	if fade < 0 {
		c.lost++
		return 0, false
	}
	return 1, true
}

func (c *linkRecorder) Capture() (channel.CaptureParams, bool) {
	return channel.CaptureParams{ThresholdMW: 1, NoiseMW: 1e-9}, c.capture
}

// TestChannelSeesPositionDistances broadcasts once from every node of a
// 500-node random geometric graph, under a frame and under a link
// channel, and checks that the channel calls get the link lengths the
// positions give, bit for bit, though the medium reads them from the
// graph's edges instead of computing them. Calls carry no endpoints, so
// the sorted lengths are compared with the sorted lengths of all
// directed edges.
func TestChannelSeesPositionDistances(t *testing.T) {
	side := math.Sqrt(500) * topo.DefaultSpacing
	g, err := topo.RandomGeometric(500, side, side, 1.8*topo.DefaultSpacing, 1<<8)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for from := topo.NodeID(0); int(from) < g.Len(); from++ {
		for _, to := range g.Neighbors(from) {
			want = append(want, math.Float64bits(g.Position(from).DistanceTo(g.Position(to))))
		}
	}
	slices.Sort(want)
	frameCh, linkCh := &frameRecorder{}, &linkRecorder{capture: true}
	for _, tc := range []struct {
		ch    channel.Model
		dists *[]float64
	}{{frameCh, &frameCh.dists}, {linkCh, &linkCh.dists}} {
		sim := des.New()
		m := New(sim, g, 1)
		m.Reset(1, tc.ch, false, nil)
		for n := topo.NodeID(0); int(n) < g.Len(); n++ {
			sim.ScheduleAfter(time.Duration(n)*time.Millisecond, func() { m.Broadcast(n, []byte{1}) })
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(*tc.dists))
		for i, d := range *tc.dists {
			got[i] = math.Float64bits(d)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: the %d link lengths asked differ from the %d the positions give", tc.ch.Spec(), len(got), len(want))
		}
	}
}

// TestCaptureChannelAskedOncePerEdgePerRun broadcasts three times from
// every node of a grid, in two runs, and counts the calls the channel
// gets. A link channel, capture or not, is asked once per directed edge
// per run however many frames cross the edge, and asked afresh after
// Reset; every later frame gets the verdict it gave. A frame channel is
// asked on every candidate reception, so its draws from the shared stream
// stay one per frame.
func TestCaptureChannelAskedOncePerEdgePerRun(t *testing.T) {
	const rounds = 3
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	edges := 2 * g.EdgeCount()
	// run broadcasts rounds times from every node on a fresh run of m.
	run := func(sim *des.Simulator, m *Medium, seed uint64, ch channel.Model) Stats {
		sim.Reset()
		m.Reset(seed, ch, false, nil)
		for r := 0; r < rounds; r++ {
			for n := topo.NodeID(0); int(n) < g.Len(); n++ {
				at := time.Duration(r*g.Len()+int(n)) * time.Millisecond
				sim.ScheduleAfter(at, func() { m.Broadcast(n, []byte{1}) })
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	for _, capture := range []bool{true, false} {
		ch := &linkRecorder{capture: capture}
		sim := des.New()
		m := New(sim, g, 1)
		m.SetReceiver(func(bool, topo.NodeID, topo.NodeID, int, []byte) {})
		for seed := uint64(1); seed <= 2; seed++ {
			ch.dists, ch.lost = nil, 0
			st := run(sim, m, seed, ch)
			if len(ch.dists) != edges {
				t.Errorf("capture=%v run %d: link channel asked %d times, want once per directed edge, %d", capture, seed, len(ch.dists), edges)
			}
			if ch.lost == 0 || ch.lost == edges {
				t.Fatalf("capture=%v run %d: %d of %d edges lost; the fades do not split the links", capture, seed, ch.lost, edges)
			}
			if wantLoss, wantDel := uint64(rounds*ch.lost), uint64(rounds*(edges-ch.lost)); st.LossDrops != wantLoss || st.Deliveries != wantDel {
				t.Errorf("capture=%v run %d: %d loss drops and %d deliveries, want %d and %d", capture, seed, st.LossDrops, st.Deliveries, wantLoss, wantDel)
			}
		}
	}
	ch := &frameRecorder{loss: 0.3}
	sim := des.New()
	m := New(sim, g, 1)
	m.SetReceiver(func(bool, topo.NodeID, topo.NodeID, int, []byte) {})
	st := run(sim, m, 1, ch)
	if len(ch.dists) != rounds*edges {
		t.Errorf("frame channel asked %d times, want once per candidate reception, %d", len(ch.dists), rounds*edges)
	}
	if st.LossDrops != uint64(ch.lost) || st.Deliveries != uint64(rounds*edges-ch.lost) {
		t.Errorf("frame channel: %d loss drops and %d deliveries, want %d and %d", st.LossDrops, st.Deliveries, ch.lost, rounds*edges-ch.lost)
	}
}

// TestLinkFadeDeterministic: a link's fade is a pure function of (seed,
// link) — symmetric, independent of the order in which links are first
// used, replayed by Reset to the same seed, and different under another
// seed. The link verdicts a shadowed channel leaves in edgePower after a
// broadcast from every node show it through the medium.
func TestLinkFadeDeterministic(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	ch := channel.LogDistance{Exp: 2.4, Sigma: 4}
	sim := des.New()
	m := New(sim, g, 1)
	// verdicts runs one broadcast from every node, in the given order, and
	// returns a copy of the medium's link verdicts.
	verdicts := func(seed uint64, reverse bool) []float64 {
		sim.Reset()
		m.Reset(seed, ch, false, nil)
		for i := 0; i < g.Len(); i++ {
			n := topo.NodeID(i)
			if reverse {
				n = topo.NodeID(g.Len() - 1 - i)
			}
			sim.ScheduleAfter(time.Duration(i)*time.Millisecond, func() { m.Broadcast(n, []byte{1}) })
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return slices.Clone(m.edgePower)
	}
	first := verdicts(7, false)
	if slices.Contains(first, 0) {
		t.Fatal("an edge was never asked")
	}
	for from := topo.NodeID(0); int(from) < g.Len(); from++ {
		for k, to := range g.Neighbors(from) {
			back := slices.Index(g.Neighbors(to), from)
			if a, b := first[g.FirstEdge(from)+k], first[g.FirstEdge(to)+back]; a != b {
				t.Errorf("verdict not symmetric: %d→%d %v, %d→%d %v", from, to, a, to, from, b)
			}
			if a, b := m.linkFade(from, to), m.linkFade(to, from); a != b {
				t.Errorf("fade not symmetric: %d–%d %v, %d–%d %v", from, to, a, to, from, b)
			}
		}
	}
	if slices.Min(first) == slices.Max(first) {
		t.Fatalf("every edge has verdict %v; the fade streams are not keyed by link", first[0])
	}
	if got := verdicts(7, true); !slices.Equal(got, first) {
		t.Error("the order links were first used in changed their verdicts")
	}
	if got := verdicts(7, false); !slices.Equal(got, first) {
		t.Error("Reset to the same seed did not replay the verdicts")
	}
	if got := verdicts(8, false); slices.Equal(got, first) {
		t.Error("Reset to another seed kept every verdict")
	}
}

// TestBroadcastSteadyStateAllocFree holds every broadcastCase at zero
// allocations once the pools are warm: the frame pool, the collision and
// SINR windows and the observer scan must all reuse their storage.
func TestBroadcastSteadyStateAllocFree(t *testing.T) {
	for _, c := range broadcastCases {
		t.Run(c.name, func(t *testing.T) {
			op := newBroadcastOp(t, c)
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("Broadcast→delivery steady state allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

func TestDisabledNodeNeitherSendsNorReceives(t *testing.T) {
	sim, _, m := newTestMedium(t, 2)
	count := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { count++ }))
	m.DisableNode(1)
	sim.ScheduleAfter(0, func() { m.Broadcast(0, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 0 {
		t.Error("disabled node received a frame")
	}
	if !m.disabled[1] {
		t.Error("node 1 not disabled")
	}
	// Disabled sender transmits nothing.
	before := m.Stats().Broadcasts
	sim.ScheduleAfter(0, func() { m.Broadcast(1, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Stats().Broadcasts != before {
		t.Error("disabled node transmitted")
	}
}

func TestStatsCounters(t *testing.T) {
	sim, _, m := newTestMedium(t, 2)
	m.SetReceiver(func(bool, topo.NodeID, topo.NodeID, int, []byte) {})
	sim.ScheduleAfter(0, func() { m.Broadcast(0, make([]byte, 10)) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := m.Stats()
	// Node 0 of a 2×2 grid has two neighbours.
	if s.Broadcasts != 1 || s.BytesSent != 10 || s.Deliveries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPayloadCopiedNotAliased(t *testing.T) {
	sim, _, m := newTestMedium(t, 2)
	var got []byte
	m.SetReceiver(receiverAt(1, func(_ bool, _ topo.NodeID, p []byte) { got = p }))
	buf := []byte{1, 2, 3}
	sim.ScheduleAfter(0, func() {
		m.Broadcast(0, buf)
		buf[0] = 99 // mutate after broadcast
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[0] != 1 {
		t.Error("delivered payload aliased the caller's buffer")
	}
}

// TestMediumResetClearsRunState: Reset rewinds failed nodes, observers,
// collision windows and counters, swaps the channel model, and reseeds
// the loss stream so a reset medium replays a fresh medium's draws —
// while registered receivers (wiring) survive.
func TestMediumResetClearsRunState(t *testing.T) {
	g, err := topo.Line(3, 4.5, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, nil, true, nil)
	var got int
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { got++ }))
	obs := &fixedObserver{pos: g.Position(0)}
	m.AddObserver(obs)
	m.DisableNode(2)
	m.Broadcast(0, []byte{1, 2, 3})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 || len(obs.seen) != 1 {
		t.Fatalf("pre-reset run: deliveries=%d observations=%d", got, len(obs.seen))
	}

	sim.Reset()
	m.Reset(1, nil, true, nil)
	if m.disabled[2] {
		t.Errorf("DisableNode survived Reset")
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Errorf("stats survived Reset: %+v", st)
	}
	obs.seen = nil
	m.Broadcast(0, []byte{1, 2, 3})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(obs.seen) != 0 {
		t.Errorf("observer survived Reset: heard %d", len(obs.seen))
	}
	if got != 2 {
		t.Errorf("receiver wiring did not survive Reset: deliveries=%d", got)
	}
	if st := m.Stats(); st.Broadcasts != 1 || st.Deliveries != 1 {
		t.Errorf("post-reset stats: %+v", st)
	}
}
