package experiment

import (
	"fmt"
	"strings"

	"slpdas/internal/attacker"
	"slpdas/internal/core"
	"slpdas/internal/metrics"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
)

// Arm is one row of an ablation: the label cells that name it and the
// config it runs.
type Arm struct {
	Labels []string
	Config core.Config
}

// Column is one metric column of an ablation table: its header and the
// campaign column name of the declared metric it shows (see Metrics).
type Column struct {
	Header, Metric string
}

// Ablation runs every arm as one cell on the size×size grid of §VI-A, all
// on seeds baseSeed + r through one engine call, and renders one table
// row per arm: its labels under labelHeaders, then each picked metric. A
// proportion renders as "12.0% (12/100)", a mean to one decimal, or "-"
// when no run observed it. The aggregates are returned in arm order.
// It is the simulated form of the design-choice studies (search
// distance, attacker strategy, channel model in slpsim sweep);
// AttackerSweep is the exhaustive counterpart.
func Ablation(gridSize, repeats int, baseSeed uint64, labelHeaders []string, arms []Arm, cols []Column) (*metrics.Table, []*Aggregate, error) {
	metric := make([]int, len(cols))
	headers := append([]string(nil), labelHeaders...)
	for i, c := range cols {
		metric[i] = -1
		for j, m := range metricTable {
			if m.Column != "" && m.Column == c.Metric {
				metric[i] = j
			}
		}
		if metric[i] < 0 {
			return nil, nil, fmt.Errorf("experiment: ablation: no metric column %q", c.Metric)
		}
		headers = append(headers, c.Header)
	}
	cfgs := make([]core.Config, len(arms))
	for i, arm := range arms {
		if len(arm.Labels) != len(labelHeaders) {
			return nil, nil, fmt.Errorf("experiment: ablation: arm %d has %d labels for %d label columns", i, len(arm.Labels), len(labelHeaders))
		}
		cfgs[i] = arm.Config
	}
	specs, err := gridCells(gridSize, repeats, baseSeed, cfgs...)
	if err != nil {
		return nil, nil, err
	}
	aggs, err := runAll(specs, 0, func(i int) string {
		return "ablation " + strings.Join(arms[i].Labels, " ")
	})
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable(headers...)
	for i, agg := range aggs {
		row := append([]string(nil), arms[i].Labels...)
		for _, m := range metric {
			switch f := agg.field(m).(type) {
			case *metrics.Proportion:
				row = append(row, f.String())
			case *metrics.Summary:
				if f.N == 0 {
					row = append(row, "-")
				} else {
					row = append(row, fmt.Sprintf("%.1f", f.Mean))
				}
			}
		}
		t.AddRow(row...)
	}
	return t, aggs, nil
}

// AttackerPoint is one cell of the attacker-strength ablation
// (DESIGN.md A2): the exhaustive worst case of Algorithm 1 over one
// settled schedule.
type AttackerPoint struct {
	Params         attacker.Params
	Captured       bool
	CapturePeriod  int
	StatesExplored int
}

// AttackerSweep builds one schedule with the given config and seed, then
// verifies it against every attacker parameterisation using the
// nondeterministic any-heard decision set.
func AttackerSweep(gridSize int, cfg core.Config, seed uint64, params []attacker.Params) ([]AttackerPoint, error) {
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
