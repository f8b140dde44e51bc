package slpdas

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (Section VI), plus the ablations called out in
// DESIGN.md. Each bench both measures the runtime of the regeneration and
// reports the reproduced quantities through b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment driver:
//
//	BenchmarkFigure5a          capture ratio vs size, SD=3  (Figure 5a)
//	BenchmarkFigure5b          capture ratio vs size, SD=5  (Figure 5b)
//	BenchmarkTableI            parameter table               (Table I)
//	BenchmarkMessageOverhead   "negligible overhead" claim   (§VI / abstract)
//	BenchmarkAblation*         design-choice sweeps          (DESIGN.md A1–A4)
//
// Repetition counts are sized for minutes-scale runs; cmd/slpsim runs the
// same experiments with arbitrary repeats for tighter confidence
// intervals.

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"slpdas/internal/attacker"
	"slpdas/internal/channel"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
	"slpdas/internal/wire"
)

const benchSeed = 40_000

func reportFigure5(b *testing.B, fig *experiment.Figure5) {
	b.Helper()
	for _, p := range fig.Points {
		b.ReportMetric(p.Protectionless.Percent(), fmt.Sprintf("prot%%@%d", p.GridSize))
		b.ReportMetric(p.SLP.Percent(), fmt.Sprintf("slp%%@%d", p.GridSize))
	}
}

// BenchmarkFigure5a regenerates Figure 5(a): capture ratio for network
// sizes 11, 15, 21 with search distance 3.
func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure5(experiment.Figure5Spec{
			GridSizes:      []int{11, 15, 21},
			SearchDistance: 3,
			Repeats:        25,
			BaseSeed:       benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportFigure5(b, fig)
	}
}

// BenchmarkFigure5b regenerates Figure 5(b): search distance 5.
func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure5(experiment.Figure5Spec{
			GridSizes:      []int{11, 15, 21},
			SearchDistance: 5,
			Repeats:        25,
			BaseSeed:       benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportFigure5(b, fig)
	}
}

// BenchmarkTableI regenerates Table I from the live configuration.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.TableI().String(); len(tbl) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkMessageOverhead regenerates the message-overhead comparison
// behind the abstract's "negligible message overhead" claim.
func BenchmarkMessageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, err := experiment.RunOverhead(11, 3, 10, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		extra := o.SLP.ControlMessages.Mean - o.Protectionless.ControlMessages.Mean
		b.ReportMetric(extra, "extra-ctrl-msgs")
		b.ReportMetric(100*extra/o.Protectionless.TotalMessages.Mean, "extra-ctrl-%")
	}
}

// BenchmarkAblationSearchDistance sweeps SD (DESIGN.md A1): the paper
// only evaluates 3 and 5; this measures the full range on the 11×11 grid.
func BenchmarkAblationSearchDistance(b *testing.B) {
	for _, sd := range []int{1, 2, 3, 4, 5, 6, 7} {
		sd := sd
		b.Run(fmt.Sprintf("sd=%d", sd), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arms := []experiment.Arm{{Labels: []string{strconv.Itoa(sd)}, Config: core.DefaultSLP(sd)}}
				_, aggs, err := experiment.Ablation(11, 20, benchSeed, []string{"search distance"}, arms, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(aggs[0].CaptureRatio.Percent(), "capture%")
				b.ReportMetric(aggs[0].ChangedNodes.Mean, "changed-nodes")
			}
		})
	}
}

// BenchmarkAblationAttacker sweeps attacker strength (DESIGN.md A2) with
// the decision procedure over a fixed settled schedule: stronger
// (R, M)-attackers explore more of the slot landscape.
func BenchmarkAblationAttacker(b *testing.B) {
	params := []attacker.Params{
		{R: 1, H: 0, M: 1},
		{R: 2, H: 0, M: 1},
		{R: 2, H: 0, M: 2},
		{R: 3, H: 1, M: 2},
	}
	for i := range params {
		p := params[i]
		b.Run(fmt.Sprintf("R%d_H%d_M%d", p.R, p.H, p.M), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiment.AttackerSweep(11, core.DefaultSLP(3), benchSeed, []attacker.Params{p})
				if err != nil {
					b.Fatal(err)
				}
				captured := 0.0
				if points[0].Captured {
					captured = 1
				}
				b.ReportMetric(captured, "captured")
				b.ReportMetric(float64(points[0].StatesExplored), "states")
			}
		})
	}
}

// BenchmarkAblationLossModel compares channel models (DESIGN.md A3): the
// paper evaluates the ideal channel; this quantifies robustness under the
// casino-lab substitute and Bernoulli loss.
func BenchmarkAblationLossModel(b *testing.B) {
	for _, loss := range []channel.Model{channel.Ideal{}, channel.Bernoulli{P: 0.05}, channel.RSSI{}} {
		b.Run(loss.Spec(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultSLP(3)
				cfg.Channel = loss
				agg, err := experiment.Run(experiment.Spec{GridSize: 11, Config: cfg, Repeats: 15, BaseSeed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(agg.CaptureRatio.Value()*100, "capture%")
				b.ReportMetric(agg.ScheduleValid.Value()*100, "valid%")
			}
		})
	}
}

// BenchmarkVerifySchedule measures the decision procedure itself
// (DESIGN.md A4) on greedy reference schedules of the paper's sizes.
func BenchmarkVerifySchedule(b *testing.B) {
	for _, side := range []int{11, 15, 21} {
		side := side
		b.Run(fmt.Sprintf("grid=%d", side), func(b *testing.B) {
			g, err := topo.DefaultGrid(side)
			if err != nil {
				b.Fatal(err)
			}
			sink, source := topo.GridCentre(side), topo.GridTopLeft()
			a, err := schedule.GreedyDAS(g, sink, 200)
			if err != nil {
				b.Fatal(err)
			}
			delta := 2 * side
			p := attacker.Params{R: 2, H: 0, M: 1, Start: sink}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := verify.VerifySchedule(g, a, p, verify.AnyHeardD, delta, source, verify.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleRun measures one full simulated lifecycle (setup + data
// phase + attacker) per grid size — the unit cost behind every experiment.
// Allocation counts are reported because the des/radio hot path underneath
// is held to zero steady-state allocations (see the AllocFree tests in
// internal/des, internal/radio, internal/protocol and internal/core).
func BenchmarkSingleRun(b *testing.B) {
	for _, side := range []int{11, 15, 21} {
		side := side
		b.Run(fmt.Sprintf("grid=%d", side), func(b *testing.B) {
			g, err := topo.DefaultGrid(side)
			if err != nil {
				b.Fatal(err)
			}
			sink, source := topo.GridCentre(side), topo.GridTopLeft()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := core.NewNetwork(g, sink, source, core.DefaultSLP(3), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := net.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleRunRGG measures one lifecycle on a random geometric
// graph, reusing one network through Reset, in the two configurations of
// perfbench's RGG workloads: n=500 is rgg500-faithful's (slp-das, Figure
// 2's unit decrement, range 1.8 spacings) and n=20000 is rgg20k-scale's
// (protectionless, FastCollisionResolve, range 2.2 spacings, source within
// 12 hops). Both spend most of their time handing radio frames to the
// node program: core.(*Network).receive is 56% of CPU, cumulative, at
// n=500 and 50% at n=20000, of which the DISSEM merge (mergeInfos) is
// 10% and 9%. receive itself is 2% flat: the medium hands it the edge,
// which gives the sender's Ninfo place, and the node is a slab entry.
// At n=20000 the largest flat share is gcn's Deliver (9%), whose first
// read of the receiver's node is the delivery's one cache miss; then
// Broadcast (7%) and the frame's delivery loop (6%). Neither Hypot nor a
// binary search reaches 1% (2-vCPU Xeon, Go 1.24).
//
//	go test -run '^$' -bench 'SingleRunRGG/n=20000' -benchtime 3x -cpuprofile cpu.out .
//
// profiles that path without the perfbench harness.
func BenchmarkSingleRunRGG(b *testing.B) {
	faithful := core.DefaultSLP(3)
	faithful.PathCap = core.PathRecordingOff
	scale := core.Default()
	scale.Slots = 2000
	scale.SlotPeriod = 10 * time.Millisecond
	scale.MinimumSetupPeriods = 5
	scale.NeighbourDiscoveryPeriods = 1
	scale.DisseminationTimeout = 1
	scale.SafetyFactor = 1.1
	scale.FastCollisionResolve = true
	scale.EventBudget = 200_000_000
	scale.PathCap = core.PathRecordingOff
	for _, bc := range []struct {
		nodes       int
		rangeFactor float64
		maxHops     int
		cfg         core.Config
	}{
		{500, 1.8, 0, faithful},
		{20_000, 2.2, 12, scale},
	} {
		bc := bc
		b.Run(fmt.Sprintf("n=%d", bc.nodes), func(b *testing.B) {
			side := math.Sqrt(float64(bc.nodes)) * topo.DefaultSpacing
			g, err := topo.RandomGeometric(bc.nodes, side, side, bc.rangeFactor*topo.DefaultSpacing, 1<<8)
			if err != nil {
				b.Fatal(err)
			}
			sink := g.Nearest(topo.Point{X: side / 2, Y: side / 2})
			net, err := core.NewNetwork(g, sink, g.HopFarthest(sink, bc.maxHops), bc.cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.Reset(bc.cfg, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
				if _, err := net.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhase1Setup measures the distributed slot-assignment protocol
// alone.
func BenchmarkPhase1Setup(b *testing.B) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	sink, source := topo.GridCentre(11), topo.GridTopLeft()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := core.NewNetwork(g, sink, source, core.Default(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.RunSetup(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyDAS measures the centralized reference generator.
func BenchmarkGreedyDAS(b *testing.B) {
	g, err := topo.DefaultGrid(21)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.GreedyDAS(g, topo.GridCentre(21), 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip measures the frame codec: encode into a fresh
// 64-byte frame, then decode with one reused Decoder, as the simulator's receive path keeps.
func BenchmarkWireRoundTrip(b *testing.B) {
	msg := &wire.Dissem{
		From:   7,
		Normal: true,
		Parent: 3,
		Infos: []wire.NodeInfo{
			{Node: 1, Hop: 2, Slot: 90, Version: 4},
			{Node: 2, Hop: 3, Slot: 88, Version: 2},
			{Node: 3, Hop: 1, Slot: 95, Version: 9},
			{Node: 4, Hop: 2, Slot: 89, Version: 1},
		},
	}
	var dec wire.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame := wire.AppendFrame(make([]byte, 0, 64), msg)
		if _, err := dec.Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}
