package radio

import (
	"testing"
	"time"

	"slpdas/internal/channel"
	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// sinrMedium builds a line topology driven under a parsed channel spec.
func sinrMedium(t *testing.T, n int, spacing, radioRange float64, spec string) (*des.Simulator, *Medium) {
	t.Helper()
	g, err := topo.Line(n, spacing, radioRange)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	ch, err := channel.Parse(spec)
	if err != nil {
		t.Fatalf("channel.Parse(%q): %v", spec, err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, ch, false, nil)
	return sim, m
}

// TestSINRCaptureStrongerFrameSurvives: two simultaneous transmissions at
// the same receiver, one from 4.5m and one from 9m away. Under the binary
// collision model both would die; under SINR capture the near frame's
// power exceeds threshold × (noise + far frame), so it is delivered and
// counted as a capture win, while the weaker frame is corrupted.
// Exponent 2.4 gives a power ratio of 2^2.4 ≈ 5.3 against the sinr:3
// threshold of 10^0.3 ≈ 2.0; sigma 0 keeps powers deterministic.
func TestSINRCaptureStrongerFrameSurvives(t *testing.T) {
	// Line 0-1-2-3 at 4.5m spacing, range 9m: node 1 hears node 0 at
	// 4.5m and node 3 at 9m.
	sim, m := sinrMedium(t, 4, 4.5, 9, "logdist:2.4:0@sinr:3")
	var got []topo.NodeID
	m.SetReceiver(receiverAt(1, func(_ bool, from topo.NodeID, _ []byte) { got = append(got, from) }))
	sim.ScheduleAfter(0, func() {
		m.Broadcast(0, []byte{1})
		m.Broadcast(3, []byte{2})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("node 1 received from %v, want the stronger frame from node 0 only", got)
	}
	st := m.Stats()
	if st.CaptureWins == 0 {
		t.Error("no capture win counted for the surviving frame")
	}
	if st.CollisionDrops == 0 {
		t.Error("the out-powered frame was not corrupted")
	}
}

// TestSINRNearEqualPowersBothDrop: two equidistant simultaneous senders.
// Neither frame's power can beat threshold × (noise + the other), so the
// window delivers nothing: the weaker-or-equal newcomer corrupts on
// contention and the window owner fails the capture test at delivery.
func TestSINRNearEqualPowersBothDrop(t *testing.T) {
	// Line 0-1-2 at 4.5m spacing, range 4.5m: node 1 hears both ends at
	// exactly 4.5m.
	sim, m := sinrMedium(t, 3, 4.5, 4.5, "logdist:2.4:0@sinr:3")
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() {
		m.Broadcast(0, []byte{1})
		m.Broadcast(2, []byte{2})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d frames through a symmetric collision, want 0", delivered)
	}
	st := m.Stats()
	if st.SINRDrops != 1 {
		t.Errorf("SINRDrops = %d, want 1 (the window owner failing capture)", st.SINRDrops)
	}
	if st.CollisionDrops != 1 {
		t.Errorf("CollisionDrops = %d, want 1 (the contention loser)", st.CollisionDrops)
	}
	if st.CaptureWins != 0 {
		t.Errorf("CaptureWins = %d, want 0", st.CaptureWins)
	}
}

// TestSINRLoneFrameDelivers: with no interference the capture test
// reduces to power ≥ threshold × noise, which any in-sensitivity frame
// passes by a huge margin — SINR must not tax uncontended traffic.
func TestSINRLoneFrameDelivers(t *testing.T) {
	sim, m := sinrMedium(t, 2, 4.5, 4.5, "logdist:2.4:0@sinr:3")
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if st := m.Stats(); st.CaptureWins != 0 || st.SINRDrops != 0 {
		t.Errorf("lone frame produced CaptureWins=%d SINRDrops=%d, want 0/0", st.CaptureWins, st.SINRDrops)
	}
}

// testMeter records energy charges and can kill a node mid-charge the way
// core.Network does on battery depletion.
type testMeter struct {
	m        *Medium
	txCalls  []int // payload bytes per ChargeTx
	rxCalls  []int // payload bytes per ChargeRx
	killTxAt int   // kill the sender on the n-th ChargeTx (1-based; 0 = never)
}

func (em *testMeter) ChargeTx(n topo.NodeID, bytes int) {
	em.txCalls = append(em.txCalls, bytes)
	if em.killTxAt > 0 && len(em.txCalls) == em.killTxAt {
		em.m.DisableNode(n)
	}
}

func (em *testMeter) ChargeRx(n topo.NodeID, bytes int) {
	em.rxCalls = append(em.rxCalls, bytes)
}

// TestEnergyMeterChargesTxAndRx: one broadcast on a 2-node line bills the
// sender once and the receiver once, both for the payload size, and the
// receiver is billed even when the frame is corrupted — the radio pays
// for listening regardless of the verdict.
func TestEnergyMeterChargesTxAndRx(t *testing.T) {
	g, err := topo.Line(2, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	em := &testMeter{}
	m := New(sim, g, 1)
	m.Reset(1, nil, false, em)
	em.m = m
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) {}))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, []byte{1, 2, 3}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(em.txCalls) != 1 || em.txCalls[0] != 3 {
		t.Errorf("ChargeTx calls = %v, want one charge of 3 bytes", em.txCalls)
	}
	if len(em.rxCalls) != 1 || em.rxCalls[0] != 3 {
		t.Errorf("ChargeRx calls = %v, want one charge of 3 bytes", em.rxCalls)
	}
}

// TestEnergyMeterChargesRxForCorruptedFrames: colliding frames are still
// paid for by every receiver in range.
func TestEnergyMeterChargesRxForCorruptedFrames(t *testing.T) {
	g, err := topo.Line(3, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	em := &testMeter{}
	m := New(sim, g, 1)
	m.Reset(1, nil, true, em)
	em.m = m
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() {
		m.Broadcast(0, []byte{1})
		m.Broadcast(2, []byte{2})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d frames through a collision, want 0", delivered)
	}
	if len(em.rxCalls) != 2 {
		t.Errorf("ChargeRx calls = %d, want 2: both corrupted receptions are paid for", len(em.rxCalls))
	}
}

// TestEnergyMeterSelfKillOnTx: when the ChargeTx callback depletes the
// sender (as core.Network's battery does), the carrier never forms — no
// frame counted, nothing delivered, nothing observed.
func TestEnergyMeterSelfKillOnTx(t *testing.T) {
	g, err := topo.Line(2, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	sim := des.New()
	em := &testMeter{killTxAt: 1}
	m := New(sim, g, 1)
	m.Reset(1, nil, false, em)
	em.m = m
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	heard := 0
	m.AddObserver(&staticObserver{pos: g.Position(0), heard: &heard})
	sim.ScheduleAfter(0, func() { m.Broadcast(0, []byte{1}) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(em.txCalls) != 1 {
		t.Fatalf("ChargeTx calls = %d, want 1: the fatal keying attempt is still billed", len(em.txCalls))
	}
	if delivered != 0 || heard != 0 || len(em.rxCalls) != 0 {
		t.Errorf("delivered=%d heard=%d rxCharges=%d after a tx self-kill, want all 0", delivered, heard, len(em.rxCalls))
	}
	if st := m.Stats(); st.Broadcasts != 0 {
		t.Errorf("Broadcasts = %d, want 0: the carrier never formed", st.Broadcasts)
	}
}

type staticObserver struct {
	pos   topo.Point
	heard *int
}

func (o *staticObserver) Location() topo.Point { return o.pos }
func (o *staticObserver) Overhear(Observation) { *o.heard++ }

// TestSINRWindowResetBetweenPeriods: sequential, non-overlapping frames
// through an SINR channel never interfere — each opens a fresh window.
func TestSINRWindowResetBetweenPeriods(t *testing.T) {
	sim, m := sinrMedium(t, 2, 4.5, 4.5, "logdist:2.4:0@sinr:3")
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Second
		if _, err := sim.Schedule(at, func() { m.Broadcast(0, []byte{7}) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 10 {
		t.Fatalf("delivered = %d, want 10", delivered)
	}
	if st := m.Stats(); st.SINRDrops != 0 || st.CollisionDrops != 0 {
		t.Errorf("sequential frames produced SINRDrops=%d CollisionDrops=%d, want 0/0", st.SINRDrops, st.CollisionDrops)
	}
}
