package experiment

import (
	"fmt"
	"sort"

	"slpdas/internal/attacker"
	"slpdas/internal/core"
	"slpdas/internal/metrics"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
)

// SearchDistancePoint is one cell of the SD ablation (DESIGN.md A1).
type SearchDistancePoint struct {
	SearchDistance int
	CaptureRatio   metrics.Proportion
	ChangedNodes   metrics.Summary
}

// SearchDistanceSweep measures SLP DAS capture ratio across search
// distances on one grid size — the design-choice study behind the paper's
// choice of SD ∈ {3, 5}.
func SearchDistanceSweep(gridSize int, distances []int, repeats int, baseSeed uint64, workers int) ([]SearchDistancePoint, error) {
	if len(distances) == 0 {
		distances = []int{1, 2, 3, 4, 5, 6, 7}
	}
	cfgs := make([]core.Config, len(distances))
	for i, sd := range distances {
		cfgs[i] = core.DefaultSLP(sd)
	}
	specs, err := gridCells(gridSize, repeats, baseSeed, cfgs...)
	if err != nil {
		return nil, err
	}
	aggs, err := runAll(specs, workers, func(i int) string {
		return fmt.Sprintf("sd sweep at %d", distances[i])
	})
	if err != nil {
		return nil, err
	}
	out := make([]SearchDistancePoint, len(distances))
	for i, agg := range aggs {
		out[i] = SearchDistancePoint{
			SearchDistance: distances[i],
			CaptureRatio:   agg.CaptureRatio,
			ChangedNodes:   agg.ChangedNodes,
		}
	}
	return out, nil
}

// SearchDistanceTable renders the sweep.
func SearchDistanceTable(points []SearchDistancePoint) *metrics.Table {
	t := metrics.NewTable("search distance", "capture ratio", "changed nodes")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.SearchDistance),
			p.CaptureRatio.String(),
			fmt.Sprintf("%.1f", p.ChangedNodes.Mean),
		)
	}
	return t
}

// AttackerPoint is one cell of the attacker-strength ablation
// (DESIGN.md A2): the exhaustive worst case of Algorithm 1 over one
// settled schedule.
type AttackerPoint struct {
	Params         verify.Params
	Captured       bool
	CapturePeriod  int
	StatesExplored int
}

// AttackerSweep builds one schedule with the given config and seed, then
// verifies it against every attacker parameterisation using the
// nondeterministic any-heard decision set.
func AttackerSweep(gridSize int, cfg core.Config, seed uint64, params []verify.Params) ([]AttackerPoint, error) {
	g, err := topo.DefaultGrid(gridSize)
	if err != nil {
		return nil, err
	}
	sink, source := topo.GridCentre(gridSize), topo.GridTopLeft()
	net, err := core.NewNetwork(g, sink, source, cfg, seed)
	if err != nil {
		return nil, err
	}
	assignment, err := net.RunSetup()
	if err != nil {
		return nil, err
	}
	delta := int(net.SafetyPeriods())
	out := make([]AttackerPoint, 0, len(params))
	for _, p := range params {
		p.Start = sink
		res, err := verify.VerifySchedule(g, assignment, p, verify.AnyHeardD, delta, source, verify.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiment: attacker sweep %+v: %w", p, err)
		}
		out = append(out, AttackerPoint{
			Params:         p,
			Captured:       !res.SLPAware,
			CapturePeriod:  res.CapturePeriod,
			StatesExplored: res.StatesExplored,
		})
	}
	return out, nil
}

// AttackerTable renders the sweep.
func AttackerTable(points []AttackerPoint) *metrics.Table {
	t := metrics.NewTable("attacker (R,H,M)", "verdict", "states")
	for _, p := range points {
		verdict := "δ-SLP-aware"
		if p.Captured {
			verdict = fmt.Sprintf("captured in %d periods", p.CapturePeriod)
		}
		t.AddRow(
			fmt.Sprintf("(%d,%d,%d)", p.Params.R, p.Params.H, p.Params.M),
			verdict,
			fmt.Sprintf("%d", p.StatesExplored),
		)
	}
	return t
}

// StrategyPoint is one cell of the simulated attacker-strategy study:
// capture ratio and time for one (strategy, team size) coordinate.
type StrategyPoint struct {
	Strategy       string
	Attackers      int
	SharedHistory  bool
	CaptureRatio   metrics.Proportion
	CapturePeriods metrics.Summary // over captured runs only
}

// StrategySweep measures one base config against every named strategy at
// each team size — the Monte-Carlo counterpart of AttackerSweep's
// exhaustive verification, and the per-strategy capture ratio/time series
// behind the attacker panel. Empty strategies defaults to the full
// registry; empty counts defaults to a single attacker.
func StrategySweep(gridSize int, base core.Config, strategies []string, counts []int, repeats int, baseSeed uint64, workers int) ([]StrategyPoint, error) {
	if len(strategies) == 0 {
		strategies = attacker.StrategyNames()
	}
	if len(counts) == 0 {
		counts = []int{1}
	}
	var cfgs []core.Config
	for _, s := range strategies {
		for _, count := range counts {
			cfg := base
			cfg.Strategy = s
			cfg.AttackerCount = count
			cfgs = append(cfgs, cfg)
		}
	}
	specs, err := gridCells(gridSize, repeats, baseSeed, cfgs...)
	if err != nil {
		return nil, err
	}
	aggs, err := runAll(specs, workers, func(i int) string {
		return fmt.Sprintf("strategy sweep %s x%d", cfgs[i].Strategy, cfgs[i].AttackerCount)
	})
	if err != nil {
		return nil, err
	}
	out := make([]StrategyPoint, len(cfgs))
	for i, agg := range aggs {
		out[i] = StrategyPoint{
			Strategy:       cfgs[i].Strategy,
			Attackers:      cfgs[i].AttackerCount,
			SharedHistory:  cfgs[i].SharedHistory,
			CaptureRatio:   agg.CaptureRatio,
			CapturePeriods: agg.CapturePeriods,
		}
	}
	return out, nil
}

// StrategyTable renders the sweep.
func StrategyTable(points []StrategyPoint) *metrics.Table {
	t := metrics.NewTable("strategy", "attackers", "capture ratio", "mean capture periods")
	for _, p := range points {
		periods := "-"
		if p.CapturePeriods.N > 0 {
			periods = fmt.Sprintf("%.1f", p.CapturePeriods.Mean)
		}
		t.AddRow(p.Strategy, fmt.Sprintf("%d", p.Attackers), p.CaptureRatio.String(), periods)
	}
	return t
}

// LossModelPoint is one cell of the channel ablation (DESIGN.md A3).
type LossModelPoint struct {
	Model         string
	CaptureRatio  metrics.Proportion
	ScheduleValid metrics.Proportion
}

// LossModelSweep measures SLP DAS robustness across channel models,
// given as row label → internal/channel spec. The nil default is the
// paper-era trio: ideal, 5% Bernoulli loss and the rssi noise substitute.
func LossModelSweep(gridSize, searchDistance, repeats int, baseSeed uint64, workers int, models map[string]string) ([]LossModelPoint, error) {
	if models == nil {
		models = map[string]string{
			"ideal":          "ideal",
			"bernoulli-0.05": "bernoulli:0.05",
			"rssi-noise":     "rssi",
		}
	}
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	// Sort for deterministic output order.
	sort.Strings(names)
	cfgs := make([]core.Config, len(names))
	for i, name := range names {
		cfgs[i] = core.DefaultSLP(searchDistance)
		cfgs[i].Channel = models[name]
	}
	specs, err := gridCells(gridSize, repeats, baseSeed, cfgs...)
	if err != nil {
		return nil, err
	}
	aggs, err := runAll(specs, workers, func(i int) string {
		return fmt.Sprintf("loss sweep %q", names[i])
	})
	if err != nil {
		return nil, err
	}
	out := make([]LossModelPoint, len(names))
	for i, agg := range aggs {
		out[i] = LossModelPoint{
			Model:         names[i],
			CaptureRatio:  agg.CaptureRatio,
			ScheduleValid: agg.ScheduleValid,
		}
	}
	return out, nil
}

// LossModelTable renders the sweep.
func LossModelTable(points []LossModelPoint) *metrics.Table {
	t := metrics.NewTable("channel model", "capture ratio", "valid schedules")
	for _, p := range points {
		t.AddRow(p.Model, p.CaptureRatio.String(), p.ScheduleValid.String())
	}
	return t
}
