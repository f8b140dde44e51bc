package radio

import (
	"testing"
	"time"

	"slpdas/internal/topo"
)

// midFlight returns a time strictly inside the reception window of a
// payload broadcast at t=0.
func midFlight(m *Medium, bytes int) time.Duration {
	return (m.Airtime(bytes) + DefaultPropagationDelay) / 2
}

// TestSenderDiesMidFrameDropsTail pins the crash semantics the fault
// subsystem builds on: a sender that dies while its frame is on the air
// stops keying the carrier, so the tail of the frame never arrives and the
// reception must not be delivered.
func TestSenderDiesMidFrameDropsTail(t *testing.T) {
	sim, _, m := newTestMedium(t, 3)
	payload := make([]byte, 50)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) })
	sim.ScheduleAfter(midFlight(m, len(payload)), func() { m.DisableNode(0) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Errorf("delivered %d receptions from a sender that died mid-frame, want 0", delivered)
	}
	if got := m.Stats().Deliveries; got != 0 {
		t.Errorf("Stats().Deliveries = %d, want 0", got)
	}
}

// TestReceiverDiesMidFlightDropsReception pins the receiver side: an
// in-flight reception at a node that dies before the reception window ends
// must not count.
func TestReceiverDiesMidFlightDropsReception(t *testing.T) {
	sim, _, m := newTestMedium(t, 3)
	payload := make([]byte, 50)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) })
	sim.ScheduleAfter(midFlight(m, len(payload)), func() { m.DisableNode(1) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Errorf("delivered %d receptions at a receiver that died mid-flight, want 0", delivered)
	}
}

type recordingObserver struct {
	at  topo.Point
	got []Observation
}

func (o *recordingObserver) Location() topo.Point     { return o.at }
func (o *recordingObserver) Overhear(obs Observation) { o.got = append(o.got, obs) }

// TestSenderDiesMidFrameNotObserved: direction finding works on the
// carrier, and a dead sender's carrier stopped — the attacker must not
// finish observing a transmission whose sender died mid-frame.
func TestSenderDiesMidFrameNotObserved(t *testing.T) {
	sim, g, m := newTestMedium(t, 3)
	obs := &recordingObserver{at: g.Position(0)}
	m.AddObserver(obs)
	payload := make([]byte, 50)
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) })
	sim.ScheduleAfter(midFlight(m, len(payload)), func() { m.DisableNode(0) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(obs.got) != 0 {
		t.Errorf("observer overheard %d transmissions from a sender that died mid-frame, want 0", len(obs.got))
	}
}

// TestEnableNodeRestoresTraffic: EnableNode undoes DisableNode, and only
// frames broadcast after re-enablement are delivered.
func TestEnableNodeRestoresTraffic(t *testing.T) {
	sim, _, m := newTestMedium(t, 3)
	payload := make([]byte, 10)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	m.DisableNode(0)
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) }) // suppressed: sender down
	sim.ScheduleAfter(time.Millisecond, func() { m.EnableNode(0) })
	sim.ScheduleAfter(2*time.Millisecond, func() { m.Broadcast(0, payload) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d receptions, want exactly the post-recovery broadcast", delivered)
	}
	if m.disabled[0] {
		t.Error("node 0 still disabled after EnableNode")
	}
}

// TestDisableLinkBlocksBothDirections: a failed link carries no frames in
// either direction while the endpoints keep talking to other neighbours.
func TestDisableLinkBlocksBothDirections(t *testing.T) {
	sim, g, m := newTestMedium(t, 3)
	centre := topo.GridIndex(3, 1, 1)
	right := topo.GridIndex(3, 1, 2)
	up := topo.GridIndex(3, 0, 1)
	received := make(map[topo.NodeID]int)
	m.SetReceiver(func(_ bool, _, to topo.NodeID, _ int, _ []byte) {
		if to == centre || to == right || to == up {
			received[to]++
		}
	})
	m.DisableLink(centre, right)
	if !m.LinkDisabled(right, centre) {
		t.Fatal("LinkDisabled not symmetric")
	}
	payload := make([]byte, 10)
	sim.ScheduleAfter(0, func() { m.Broadcast(centre, payload) })
	sim.ScheduleAfter(time.Millisecond, func() { m.Broadcast(right, payload) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received[right] != 0 {
		t.Errorf("frame crossed the failed link centre→right %d times", received[right])
	}
	if received[centre] != 0 {
		t.Errorf("frame crossed the failed link right→centre %d times", received[centre])
	}
	if received[up] != 1 {
		t.Errorf("unrelated neighbour received %d frames, want 1", received[up])
	}
	_ = g
}

// TestLinkFailsMidFlightDropsFrame: a link that fails while a frame is on
// the air loses that frame — the reception window ends on a dead link.
func TestLinkFailsMidFlightDropsFrame(t *testing.T) {
	sim, _, m := newTestMedium(t, 3)
	payload := make([]byte, 50)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) })
	sim.ScheduleAfter(midFlight(m, len(payload)), func() { m.DisableLink(0, 1) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Errorf("delivered %d receptions across a link that failed mid-flight, want 0", delivered)
	}
}

// TestResetClearsDownLinks: link faults are run state, cleared by Reset.
func TestResetClearsDownLinks(t *testing.T) {
	sim, _, m := newTestMedium(t, 3)
	m.DisableLink(0, 1)
	m.Reset(1, nil, false, nil)
	if m.LinkDisabled(0, 1) {
		t.Error("link fault survived Reset")
	}
	payload := make([]byte, 10)
	delivered := 0
	m.SetReceiver(receiverAt(1, func(bool, topo.NodeID, []byte) { delivered++ }))
	sim.ScheduleAfter(0, func() { m.Broadcast(0, payload) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d receptions after Reset, want 1", delivered)
	}
}
