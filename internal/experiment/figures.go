package experiment

import (
	"fmt"
	"math"
	"time"

	"slpdas/internal/core"
	"slpdas/internal/metrics"
	"slpdas/internal/wire"
)

// Figure5Point is one x-position of Figure 5: capture ratios for both
// protocols at one network size.
type Figure5Point struct {
	GridSize       int
	Protectionless metrics.Proportion
	SLP            metrics.Proportion
	// Aggregates carry the full per-cell data for deeper reporting.
	ProtectionlessAgg *Aggregate
	SLPAgg            *Aggregate
}

// Reduction returns 1 − SLP/protectionless capture ratio (the paper's
// headline is ≈50%); NaN when the baseline never captured.
func (p Figure5Point) Reduction() float64 {
	base := p.Protectionless.Value()
	if base == 0 || math.IsNaN(base) {
		return math.NaN()
	}
	return 1 - p.SLP.Value()/base
}

// Figure5 reproduces Figure 5(a) (SD=3) or 5(b) (SD=5): capture ratio vs
// network size for protectionless DAS and SLP DAS.
type Figure5 struct {
	SearchDistance int
	Points         []Figure5Point
}

// Figure5Spec parameterises the reproduction.
type Figure5Spec struct {
	GridSizes      []int // paper: 11, 15, 21
	SearchDistance int   // paper: 3 (a) or 5 (b)
	Repeats        int
	BaseSeed       uint64
	Workers        int
}

// RunFigure5 executes the full sweep: both protocols at every size, all
// through one engine call. Every cell runs on seeds BaseSeed + r, and both
// protocols of a size share one graph, so each worker's network slot is
// rewired once per size.
func RunFigure5(spec Figure5Spec) (*Figure5, error) {
	if len(spec.GridSizes) == 0 {
		spec.GridSizes = []int{11, 15, 21}
	}
	specs := make([]Spec, 0, 2*len(spec.GridSizes))
	for _, size := range spec.GridSizes {
		cells, err := gridCells(size, spec.Repeats, spec.BaseSeed, core.Default(), core.DefaultSLP(spec.SearchDistance))
		if err != nil {
			return nil, fmt.Errorf("experiment: fig5 size %d: %w", size, err)
		}
		specs = append(specs, cells...)
	}
	aggs, err := runAll(specs, spec.Workers, func(i int) string {
		return fmt.Sprintf("fig5 size %d %s", specs[i].GridSize, [2]string{"protectionless", "slp"}[i%2])
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure5{SearchDistance: spec.SearchDistance}
	for i, size := range spec.GridSizes {
		prot, slp := aggs[2*i], aggs[2*i+1]
		fig.Points = append(fig.Points, Figure5Point{
			GridSize:          size,
			Protectionless:    prot.CaptureRatio,
			SLP:               slp.CaptureRatio,
			ProtectionlessAgg: prot,
			SLPAgg:            slp,
		})
	}
	return fig, nil
}

// Table renders the figure as the paper's bar groups: one row per network
// size with both protocols' capture ratios.
func (f *Figure5) Table() *metrics.Table {
	t := metrics.NewTable("network size", "protectionless capture %", "slp-das capture %", "reduction %")
	for _, p := range f.Points {
		red := "n/a"
		if r := p.Reduction(); !math.IsNaN(r) {
			red = fmt.Sprintf("%.0f%%", r*100)
		}
		t.AddRow(
			fmt.Sprintf("%d", p.GridSize),
			fmt.Sprintf("%.1f ±%.1f", p.Protectionless.Percent(), p.Protectionless.CI95()*100),
			fmt.Sprintf("%.1f ±%.1f", p.SLP.Percent(), p.SLP.CI95()*100),
			red,
		)
	}
	return t
}

// OverheadComparison quantifies the paper's "negligible message overhead"
// claim: per-protocol traffic split by message type.
type OverheadComparison struct {
	GridSize       int
	Protectionless *Aggregate
	SLP            *Aggregate
}

// RunOverhead measures both protocols on one grid size.
func RunOverhead(size, searchDistance, repeats int, baseSeed uint64) (*OverheadComparison, error) {
	specs, err := gridCells(size, repeats, baseSeed, core.Default(), core.DefaultSLP(searchDistance))
	if err != nil {
		return nil, fmt.Errorf("experiment: overhead: %w", err)
	}
	aggs, err := runAll(specs, 0, func(i int) string {
		return "overhead " + [2]string{"protectionless", "slp"}[i]
	})
	if err != nil {
		return nil, err
	}
	return &OverheadComparison{GridSize: size, Protectionless: aggs[0], SLP: aggs[1]}, nil
}

// Table renders mean per-run control message counts by type, the per-
// period data rate (identical for both protocols by design: one frame per
// node per period) and the extra control cost of the SLP protocol. Raw
// per-run DATA totals are not comparable because captured runs end early.
func (o *OverheadComparison) Table() *metrics.Table {
	t := metrics.NewTable("message type", "protectionless (msgs/run)", "slp-das (msgs/run)", "extra")
	types := []wire.Type{wire.TypeHello, wire.TypeDissem, wire.TypeSearch, wire.TypeChange}
	for _, typ := range types {
		p := o.Protectionless.MessagesByType[typ]
		s := o.SLP.MessagesByType[typ]
		t.AddRow(
			typ.String(),
			fmt.Sprintf("%.1f", p.Mean),
			fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%+.1f", s.Mean-p.Mean),
		)
	}
	extra := o.SLP.ControlMessages.Mean - o.Protectionless.ControlMessages.Mean
	t.AddRow("CONTROL TOTAL",
		fmt.Sprintf("%.1f", o.Protectionless.ControlMessages.Mean),
		fmt.Sprintf("%.1f", o.SLP.ControlMessages.Mean),
		fmt.Sprintf("%+.1f (%.2f%% of all traffic)", extra,
			100*extra/o.Protectionless.TotalMessages.Mean),
	)
	t.AddRow("DATA (msgs/period)",
		fmt.Sprintf("%.1f", meanDataRate(o.Protectionless)),
		fmt.Sprintf("%.1f", meanDataRate(o.SLP)),
		"equal by design",
	)
	return t
}

func meanDataRate(a *Aggregate) float64 {
	var sum float64
	var n int
	for _, r := range a.Results {
		if rate := r.DataMessagesPerPeriod(); rate > 0 {
			sum += rate
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sourcePeriod is Table I's Psrc, the paper's source message rate. It is
// printed for reference only and not simulated: the source sends once per
// TDMA period (Slots × SlotPeriod = 5 s) in every family.
const sourcePeriod = 5500 * time.Millisecond

// TableI renders the parameter table of the paper from live config values,
// so the documentation can never drift from the implementation; only Psrc
// is the paper's value (see sourcePeriod).
func TableI() *metrics.Table {
	def := core.Default()
	t := metrics.NewTable("parameter", "symbol", "value")
	secs := func(d time.Duration) string { return fmt.Sprintf("%gs", d.Seconds()) }
	t.AddRow("Source Period", "Psrc", secs(sourcePeriod))
	t.AddRow("Slot Period", "Pslot", secs(def.SlotPeriod))
	t.AddRow("Dissemination Period", "Pdiss", secs(def.DisseminationPeriod))
	t.AddRow("Number of Slots", "slots", fmt.Sprintf("%d", def.Slots))
	t.AddRow("Minimum Setup Periods", "MSP", fmt.Sprintf("%d", def.MinimumSetupPeriods))
	t.AddRow("Neighbour Discovery Periods", "NDP", fmt.Sprintf("%d", def.NeighbourDiscoveryPeriods))
	t.AddRow("Dissemination Timeout", "DT", fmt.Sprintf("%d", def.DisseminationTimeout))
	t.AddRow("Search Distance", "SD", "3, 5")
	t.AddRow("Change Length", "CL", "Δss − SD")
	t.AddRow("Safety Factor", "Cs", fmt.Sprintf("%g", def.SafetyFactor))
	return t
}
