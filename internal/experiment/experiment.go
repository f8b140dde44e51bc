// Package experiment is the evaluation harness of Section VI: it runs
// repeated simulations across seeds (in parallel, each fully independent
// and deterministic), aggregates capture ratio, capture time, message
// overhead and schedule quality, and renders the series of Figure 5 and
// the overhead comparison.
package experiment

import (
	"fmt"

	"slpdas/internal/core"
	"slpdas/internal/metrics"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// Spec describes one experimental cell: a topology, protocol config and
// repetition count.
type Spec struct {
	// GridSize is the side of the square grid (source top-left, sink
	// centre, as §VI-A). Build other layouts with Topology instead.
	GridSize int
	// Topology overrides GridSize with an explicit graph; Sink and Source
	// must then be set.
	Topology *topo.Graph
	Sink     topo.NodeID
	Source   topo.NodeID

	Config  core.Config
	Repeats int
	// BaseSeed separates experiment batches; run r uses BaseSeed + r.
	BaseSeed uint64
}

// ResolveTopology materialises the spec's topology: the explicit graph
// when set, otherwise the paper's default grid with sink at the centre and
// source top-left.
func (s Spec) ResolveTopology() (*topo.Graph, topo.NodeID, topo.NodeID, error) {
	if s.Topology != nil {
		return s.Topology, s.Sink, s.Source, nil
	}
	g, err := topo.DefaultGrid(s.GridSize)
	if err != nil {
		return nil, 0, 0, err
	}
	return g, topo.GridCentre(s.GridSize), topo.GridTopLeft(), nil
}

// Accumulator folds the per-run Results of one cell into an Aggregate one
// result at a time, in repeat order, so a scheduler can summarise a cell
// without ever holding all of its Results in memory — the campaign
// engine's streaming reduction feeds each result in as it arrives and
// frees it immediately, which is what makes 10⁵–10⁶-node cells feasible
// (one Result carries an n-sized slot assignment).
//
// Every series streams through metrics.Stream, whose N, Mean, Min and
// Max are byte-identical to the batch metrics.Summarize of the same
// values in the same order. KeepResults additionally retains every added
// Result on the Aggregate, for callers that walk Aggregate.Results
// afterwards (figure rendering, the fig5a compat golden).
type Accumulator struct {
	spec Spec
	agg  *Aggregate

	// KeepResults retains added Results on the Aggregate. Set it before
	// the first Add.
	KeepResults bool

	series [len(metricTable)]series
	byType map[wire.Type]*metrics.Stream
}

// series accumulates one metric: a mean's streaming state or a
// proportion's counts.
type series struct {
	stream metrics.Stream
	prop   metrics.Proportion
}

// NewAccumulator prepares an empty aggregate for one cell.
func NewAccumulator(spec Spec, g *topo.Graph) *Accumulator {
	agg := &Aggregate{
		Protocol:       protocolLabel(spec.Config),
		Nodes:          g.Len(),
		GridSize:       spec.GridSize,
		Repeats:        spec.Repeats,
		Strategy:       spec.Config.Strategy.Name,
		Attackers:      spec.Config.AttackerCount,
		SharedHistory:  spec.Config.SharedHistory,
		MessagesByType: make(map[wire.Type]metrics.Summary),
	}
	agg.Name = fmt.Sprintf("%s/%s", g.Name(), agg.Protocol)
	return &Accumulator{spec: spec, agg: agg, byType: make(map[wire.Type]*metrics.Stream)}
}

// Add folds one run's result in. Nil results (failed runs) are ignored;
// callers account failures separately. Results must be added in repeat
// order for byte-identical aggregates.
func (a *Accumulator) Add(r *core.Result) {
	if r == nil {
		return
	}
	if a.KeepResults {
		a.agg.Results = append(a.agg.Results, r)
	}
	for i := range metricTable {
		m := &metricTable[i]
		x, observed := m.value(r, &a.spec.Config)
		s := &a.series[i]
		switch {
		case m.Reduce == Proportion:
			if observed {
				s.prop.Trials++
				if x != 0 {
					s.prop.Successes++
				}
			}
		case m.Reduce == Mean || observed:
			s.stream.Add(x)
		}
	}
	//lint:ignore mapiter independent per-type series updates, order-free
	for t, s := range r.Messages {
		bt := a.byType[t]
		if bt == nil {
			bt = &metrics.Stream{}
			a.byType[t] = bt
		}
		bt.Add(float64(s.Count))
	}
}

// Finalize summarises everything added so far and returns the aggregate.
func (a *Accumulator) Finalize() *Aggregate {
	for i := range metricTable {
		switch f := a.agg.field(i).(type) {
		case *metrics.Summary:
			*f = a.series[i].stream.Summary()
		case *metrics.Proportion:
			*f = a.series[i].prop
		}
	}
	//lint:ignore mapiter map-to-map copy keyed by the same key, order-free
	for t, s := range a.byType {
		a.agg.MessagesByType[t] = s.Summary()
	}
	return a.agg
}

// Aggregate is the summary of one experimental cell.
type Aggregate struct {
	Name     string
	Protocol string
	Nodes    int
	GridSize int
	Repeats  int

	// Attacker-team coordinates of the cell.
	Strategy      string
	Attackers     int
	SharedHistory bool

	CaptureRatio    metrics.Proportion
	CapturePeriods  metrics.Summary // over captured runs only
	ScheduleValid   metrics.Proportion
	SearchSucceeded metrics.Proportion // SLP only: a CHANGE path was laid
	ChangedNodes    metrics.Summary

	// Per-run traffic, split by class.
	ControlMessages metrics.Summary
	ControlBytes    metrics.Summary
	TotalMessages   metrics.Summary
	MessagesByType  map[wire.Type]metrics.Summary

	// Convergecast health.
	SourceDeliveries metrics.Summary
	DeliveryLatency  metrics.Summary

	// Attacker mobility: per-run mean relocation count across the team
	// (from Result.AttackerMoves, which survives even with walk recording
	// capped or off).
	AttackerMoves metrics.Summary

	// Fault-injection degradation (zero-valued summaries for fault-free
	// cells; RepairPeriods averages only runs that observed a repair).
	NodesFailed    metrics.Summary
	NodesRecovered metrics.Summary
	RepairPeriods  metrics.Summary
	DeliveryBefore metrics.Summary
	DeliveryDuring metrics.Summary
	DeliveryAfter  metrics.Summary
	// Partitions is the fraction of runs that ended source↔sink
	// partitioned (one of them dead, or no alive path between them).
	Partitions metrics.Proportion

	// Physical-layer and energy verdicts (zero-valued summaries for cells
	// without SINR capture or energy accounting; FirstDeathPeriod and
	// LifetimePeriods average only runs that observed the event — the -1
	// sentinels are excluded like RepairPeriods).
	CaptureWins      metrics.Summary
	EnergyTotal      metrics.Summary // per-run network total, mJ
	EnergyMax        metrics.Summary // per-run hottest node, mJ
	EnergyDeaths     metrics.Summary
	FirstDeathPeriod metrics.Summary
	LifetimePeriods  metrics.Summary

	Failures int // runs that returned an error
	Results  []*core.Result
}

// Run executes the spec: Repeats independent simulations on distinct
// seeds, on GOMAXPROCS workers. Every run that errors is counted and the
// first error is returned alongside the aggregate of the successful runs.
func Run(spec Spec) (*Aggregate, error) {
	var agg *Aggregate
	var runErr error
	err := Engine{KeepResults: true}.Run([]Spec{spec}, func(_ int, a *Aggregate, err error) error {
		agg, runErr = a, err
		return nil
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		runErr = fmt.Errorf("experiment: %w", runErr)
	}
	return agg, runErr
}

// gridCells returns one cell per config on a shared size×size grid with
// the paper's placement, all on seeds baseSeed + r. Sharing the graph lets
// each worker's network slot serve every cell of the size.
func gridCells(size, repeats int, baseSeed uint64, cfgs ...core.Config) ([]Spec, error) {
	g, sink, source, err := Spec{GridSize: size}.ResolveTopology()
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = Spec{GridSize: size, Topology: g, Sink: sink, Source: source, Config: cfg, Repeats: repeats, BaseSeed: baseSeed}
	}
	return specs, nil
}

// runAll executes specs through one engine call, keeping every Result,
// and returns their aggregates in spec order. The first cell with a
// failed run stops the pool; its error is returned, labelled by what.
func runAll(specs []Spec, workers int, what func(i int) string) ([]*Aggregate, error) {
	aggs := make([]*Aggregate, len(specs))
	err := Engine{Workers: workers, KeepResults: true}.Run(specs, func(i int, agg *Aggregate, err error) error {
		if err != nil {
			return fmt.Errorf("experiment: %s: %w", what(i), err)
		}
		aggs[i] = agg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return aggs, nil
}

// protocolLabel names the configured routing family for aggregates by
// its Label. Families parameterised by SearchDistance carry it as a
// suffix (e.g. "slp-das-sd3").
func protocolLabel(c core.Config) string {
	fam := c.Protocol
	if fam.UsesSearchDistance {
		return fmt.Sprintf("%s-sd%d", fam.Label, c.SearchDistance)
	}
	return fam.Label
}
