package experiment

import (
	"math"
	"strings"
	"testing"

	"slpdas/internal/core"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// smallSpec keeps experiment tests fast: a 5×5 grid and few repeats.
func smallSpec(slp bool, repeats int) Spec {
	cfg := core.Default()
	if slp {
		cfg = core.DefaultSLP(2)
	}
	return Spec{GridSize: 5, Config: cfg, Repeats: repeats, BaseSeed: 77}
}

func TestRunAggregatesAllRepeats(t *testing.T) {
	agg, err := Run(smallSpec(false, 6))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if agg.CaptureRatio.Trials != 6 {
		t.Errorf("trials = %d, want 6", agg.CaptureRatio.Trials)
	}
	if agg.Failures != 0 {
		t.Errorf("failures = %d", agg.Failures)
	}
	if len(agg.Results) != 6 {
		t.Errorf("results = %d", len(agg.Results))
	}
	if agg.ScheduleValid.Successes != 6 {
		t.Errorf("valid schedules = %d/6", agg.ScheduleValid.Successes)
	}
	if agg.TotalMessages.Mean <= 0 {
		t.Error("no traffic aggregated")
	}
	if agg.Nodes != 25 {
		t.Errorf("nodes = %d", agg.Nodes)
	}
	if !strings.Contains(agg.Name, "grid-5x5") {
		t.Errorf("name = %q", agg.Name)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Aggregate {
		var agg *Aggregate
		err := Engine{Workers: workers}.Run([]Spec{smallSpec(true, 5)}, func(_ int, a *Aggregate, err error) error {
			agg = a
			return err
		})
		if err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		return agg
	}
	a, b := run(1), run(4)
	if a.CaptureRatio != b.CaptureRatio {
		t.Errorf("capture ratio differs by worker count: %v vs %v", a.CaptureRatio, b.CaptureRatio)
	}
	if a.TotalMessages.Mean != b.TotalMessages.Mean {
		t.Errorf("traffic differs by worker count")
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	if _, err := Run(Spec{GridSize: 5, Config: core.Default(), Repeats: 0}); err == nil {
		t.Error("zero repeats accepted")
	}
	if _, err := Run(Spec{GridSize: 1, Config: core.Default(), Repeats: 1}); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestRunExplicitTopology(t *testing.T) {
	g, err := topo.Line(6, 4.5, 4.5)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	agg, err := Run(Spec{
		Topology: g,
		Sink:     5,
		Source:   0,
		Config:   core.Default(),
		Repeats:  3,
		BaseSeed: 5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if agg.Nodes != 6 {
		t.Errorf("nodes = %d", agg.Nodes)
	}
	// On a line the gradient leads straight to the source.
	if agg.CaptureRatio.Successes == 0 {
		t.Error("line topology: expected captures along the only gradient")
	}
}

func TestFigure5SmallSweep(t *testing.T) {
	fig, err := RunFigure5(Figure5Spec{
		GridSizes:      []int{5},
		SearchDistance: 2,
		Repeats:        8,
		BaseSeed:       11,
	})
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if len(fig.Points) != 1 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	p := fig.Points[0]
	if p.ProtectionlessAgg == nil || p.SLPAgg == nil {
		t.Fatal("missing aggregates")
	}
	tbl := fig.Table().String()
	if !strings.Contains(tbl, "network size") || !strings.Contains(tbl, "5") {
		t.Errorf("table = %q", tbl)
	}
}

func TestReductionMath(t *testing.T) {
	p := Figure5Point{}
	p.Protectionless.Successes, p.Protectionless.Trials = 20, 100
	p.SLP.Successes, p.SLP.Trials = 10, 100
	if r := p.Reduction(); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("Reduction = %v, want 0.5", r)
	}
	zero := Figure5Point{}
	zero.Protectionless.Trials = 10
	zero.SLP.Trials = 10
	if !math.IsNaN(zero.Reduction()) {
		t.Error("Reduction with zero baseline should be NaN")
	}
}

func TestOverheadComparison(t *testing.T) {
	o, err := RunOverhead(5, 2, 4, 21)
	if err != nil {
		t.Fatalf("RunOverhead: %v", err)
	}
	tbl := o.Table().String()
	for _, want := range []string{"HELLO", "DISSEM", "SEARCH", "CHANGE", "CONTROL TOTAL", "DATA (msgs/period)"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("overhead table missing %q:\n%s", want, tbl)
		}
	}
	// Protectionless sends no SEARCH or CHANGE at all.
	if s := o.Protectionless.MessagesByType[wire.TypeSearch]; s.Mean != 0 {
		t.Errorf("protectionless sent SEARCH: %v", s)
	}
	if c := o.Protectionless.MessagesByType[wire.TypeChange]; c.Mean != 0 {
		t.Errorf("protectionless sent CHANGE: %v", c)
	}
}

func TestTableIMatchesConfig(t *testing.T) {
	tbl := TableI().String()
	for _, want := range []string{"Psrc", "5.5s", "Pslot", "0.05s", "Pdiss", "0.5s", "100", "80", "Δss − SD", "1.5"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table I missing %q:\n%s", want, tbl)
		}
	}
}
