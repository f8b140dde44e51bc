package radio

import (
	"testing"

	"slpdas/internal/channel"
	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// broadcastCase is one steady-state broadcast configuration at the centre
// of an 11×11 grid. BenchmarkBroadcast times each case and
// TestBroadcastSteadyStateAllocFree holds each at zero allocations.
type broadcastCase struct {
	name       string
	channel    string // channel.Parse spec; empty means ideal
	collisions bool
	// observed puts an eavesdropper in range of the sender, covering the
	// observer scan the attacker exercises on every transmission.
	observed bool
	// rival adds a simultaneous frame from the sender's diagonal
	// neighbour, which shares two receivers with the sender, so those
	// deliveries run the contention fold and the capture verdict. (A grid
	// has no triangles: adjacent senders share no receiver.)
	rival bool
}

var broadcastCases = []broadcastCase{
	{name: "plain"},
	{name: "collisions", collisions: true},
	{name: "observed", observed: true},
	{name: "sinr", channel: "logdist:2.4:4@sinr:3", rival: true},
}

// newBroadcastOp wires a medium for c and returns one op: the case's
// broadcasts, scheduled and run to completion. The op is run a few times
// first to warm the event and frame pools and, under a link channel, the
// medium's per-edge verdicts, which are read-only from then on.
func newBroadcastOp(tb testing.TB, c broadcastCase) func() {
	tb.Helper()
	g, err := topo.DefaultGrid(11)
	if err != nil {
		tb.Fatal(err)
	}
	var ch channel.Model
	if c.channel != "" {
		if ch, err = channel.Parse(c.channel); err != nil {
			tb.Fatal(err)
		}
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, ch, c.collisions, nil)
	m.SetReceiver(func(bool, topo.NodeID, topo.NodeID, int, []byte) {})
	centre := topo.GridCentre(11)
	if c.observed {
		m.AddObserver(nopObserver{pos: g.Position(centre)})
	}
	rival := topo.GridIndex(11, 6, 6)
	payload := make([]byte, 32)
	fire := func() {
		m.Broadcast(centre, payload)
		if c.rival {
			m.Broadcast(rival, payload)
		}
	}
	op := func() {
		sim.ScheduleAfter(0, fire)
		if err := sim.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if st := m.Stats(); c.rival && st.CaptureWins+st.SINRDrops+st.CollisionDrops == 0 {
		tb.Fatalf("%s: the rival frame never contended with the sender's", c.name)
	}
	return op
}

// BenchmarkBroadcast measures one broadcast→delivery cycle per case: the
// Broadcast call that collects the receptions, then the single frame event
// that delivers them in neighbour order and runs the eavesdropper scan —
// the dominant event pattern of every run.
func BenchmarkBroadcast(b *testing.B) {
	for _, c := range broadcastCases {
		b.Run(c.name, func(b *testing.B) {
			op := newBroadcastOp(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
