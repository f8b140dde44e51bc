package radio

import (
	"testing"

	"slpdas/internal/des"
	"slpdas/internal/topo"
)

func benchMedium(b *testing.B, collisions bool) (*des.Simulator, *topo.Graph, *Medium) {
	b.Helper()
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	sim := des.New()
	m := New(sim, g, 1)
	m.Reset(1, nil, collisions, nil)
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		m.SetReceiver(n, func(uint64, topo.NodeID, []byte) {})
	}
	return sim, g, m
}

func benchBroadcast(b *testing.B, collisions bool) {
	sim, g, m := benchMedium(b, collisions)
	centre := topo.GridCentre(11)
	payload := make([]byte, 32)
	_ = g
	fire := func() { m.Broadcast(centre, payload) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ScheduleAfter(0, fire)
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcast measures one broadcast→delivery cycle at a 4-degree
// grid node, collisions off — the dominant event pattern of every run.
func BenchmarkBroadcast(b *testing.B) { benchBroadcast(b, false) }

// BenchmarkBroadcastCollisions is the same cycle with the receiver-side
// collision tracker enabled.
func BenchmarkBroadcastCollisions(b *testing.B) { benchBroadcast(b, true) }

// BenchmarkBroadcastObserved adds an in-range eavesdropper, covering the
// observer-scan path the attacker exercises on every transmission.
func BenchmarkBroadcastObserved(b *testing.B) {
	sim, g, m := benchMedium(b, false)
	centre := topo.GridCentre(11)
	m.AddObserver(nopObserver{pos: g.Position(centre)})
	payload := make([]byte, 32)
	fire := func() { m.Broadcast(centre, payload) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ScheduleAfter(0, fire)
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
