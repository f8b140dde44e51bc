package core

import (
	"testing"

	"slpdas/internal/topo"
)

// steadyDataPhase wires the default 11×11 network, runs it through setup
// into the data phase and warms the event and frame pools with four TDMA
// periods. Each call of the returned func runs one more period.
func steadyDataPhase(tb testing.TB) (nextPeriod func()) {
	tb.Helper()
	g, err := topo.DefaultGrid(11)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := NewNetwork(g, topo.GridCentre(11), topo.GridTopLeft(), Default(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := net.runSetup(); err != nil {
		tb.Fatal(err)
	}
	if err := net.startDataPhase(); err != nil {
		tb.Fatal(err)
	}
	deadline := net.dataStart
	nextPeriod = func() {
		deadline += net.period
		if err := net.sim.RunUntil(deadline); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		nextPeriod()
	}
	return nextPeriod
}

// BenchmarkDataPhasePeriod measures one steady-state TDMA period of the
// full protocol stack — every node's slot task, the convergecast
// broadcasts and the attacker clock — after setup has settled. This is the
// cost the campaign engine pays per period of every repeat of every cell,
// so it is the number the event-pool and radio-path work optimises for.
func BenchmarkDataPhasePeriod(b *testing.B) {
	nextPeriod := steadyDataPhase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextPeriod()
	}
}

// TestDataPhasePeriodAllocFree holds one steady-state TDMA period of the
// whole stack at zero allocations: the MAC slot tasks, the radio fan-out,
// frame decoding and the attacker clock all reuse their storage.
func TestDataPhasePeriodAllocFree(t *testing.T) {
	nextPeriod := steadyDataPhase(t)
	if allocs := testing.AllocsPerRun(50, nextPeriod); allocs != 0 {
		t.Errorf("one data-phase period allocates %.1f, want 0", allocs)
	}
}
