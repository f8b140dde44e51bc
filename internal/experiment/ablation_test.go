package experiment

import (
	"strconv"
	"strings"
	"testing"

	"slpdas/internal/attacker"
	"slpdas/internal/channel"
	"slpdas/internal/core"
)

func TestSearchDistanceSweep(t *testing.T) {
	arms := []Arm{
		{Labels: []string{"1"}, Config: core.DefaultSLP(1)},
		{Labels: []string{"2"}, Config: core.DefaultSLP(2)},
	}
	tbl, aggs, err := Ablation(5, 3, 31, []string{"search distance"}, arms, []Column{
		{Header: "capture ratio", Metric: "capture_ratio"},
		{Header: "changed nodes", Metric: "changed_nodes"},
	})
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(aggs) != 2 || tbl.Len() != 2 {
		t.Fatalf("aggregates = %d, table rows = %d, want 2", len(aggs), tbl.Len())
	}
	for i, agg := range aggs {
		if agg.CaptureRatio.Trials != 3 {
			t.Errorf("sd %d: trials = %d", i+1, agg.CaptureRatio.Trials)
		}
	}
	if s := tbl.String(); !strings.Contains(s, "search distance") || !strings.Contains(s, "changed nodes") {
		t.Errorf("table = %q", s)
	}
}

func TestAblationRejectsUnknownColumnAndLabelMismatch(t *testing.T) {
	arms := []Arm{{Labels: []string{"a"}, Config: core.Default()}}
	if _, _, err := Ablation(5, 1, 1, []string{"x"}, arms, []Column{{Header: "h", Metric: "no_such_column"}}); err == nil || !strings.Contains(err.Error(), "no_such_column") {
		t.Errorf("unknown metric column: err = %v", err)
	}
	if _, _, err := Ablation(5, 1, 1, []string{"x", "y"}, arms, nil); err == nil {
		t.Error("an arm with one label under two label columns was accepted")
	}
}

func TestAttackerSweepMonotoneInStrength(t *testing.T) {
	params := []attacker.Params{
		{R: 1, H: 0, M: 1},
		{R: 3, H: 0, M: 2},
	}
	points, err := AttackerSweep(7, core.DefaultSLP(2), 3, params)
	if err != nil {
		t.Fatalf("AttackerSweep: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// A strictly stronger attacker explores at least as many states and
	// captures whenever the weaker one does.
	if points[1].StatesExplored < points[0].StatesExplored {
		t.Errorf("stronger attacker explored fewer states: %d < %d",
			points[1].StatesExplored, points[0].StatesExplored)
	}
	if points[0].Captured && !points[1].Captured {
		t.Error("weaker attacker captured where the stronger one did not")
	}
	tbl := AttackerTable(points).String()
	if !strings.Contains(tbl, "(1,0,1)") {
		t.Errorf("table = %q", tbl)
	}
}

func TestLossModelSweep(t *testing.T) {
	var arms []Arm
	for _, m := range []struct {
		label string
		ch    channel.Model
	}{{"ideal", channel.Ideal{}}, {"bern-0.05", channel.Bernoulli{P: 0.05}}} {
		cfg := core.DefaultSLP(2)
		cfg.Channel = m.ch
		arms = append(arms, Arm{Labels: []string{m.label}, Config: cfg})
	}
	tbl, aggs, err := Ablation(5, 2, 9, []string{"channel model"}, arms, []Column{
		{Header: "capture ratio", Metric: "capture_ratio"},
		{Header: "valid schedules", Metric: "schedule_valid_ratio"},
	})
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	// Rows keep the arms' order.
	lines := strings.Split(tbl.String(), "\n")
	if !strings.HasPrefix(lines[2], "ideal") || !strings.HasPrefix(lines[3], "bern-0.05") {
		t.Errorf("table = %q", tbl.String())
	}
	if !strings.Contains(lines[0], "valid schedules") {
		t.Errorf("header = %q", lines[0])
	}
}

// TestStrategySweepCoversRegistryAndCounts: strategy × team-size arms
// each run their own strategy and team, with both label columns and a
// "-" for capture time where no run captured.
func TestStrategySweepCoversRegistryAndCounts(t *testing.T) {
	var arms []Arm
	for _, s := range []string{"first-heard", "random-walk"} {
		for _, n := range []int{1, 2} {
			cfg := core.Default()
			cfg.Strategy = strategy(t, s)
			cfg.AttackerCount = n
			arms = append(arms, Arm{Labels: []string{s, strconv.Itoa(n)}, Config: cfg})
		}
	}
	tbl, aggs, err := Ablation(5, 2, 1, []string{"strategy", "attackers"}, arms, []Column{
		{Header: "capture ratio", Metric: "capture_ratio"},
		{Header: "mean capture periods", Metric: "mean_capture_periods"},
	})
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(aggs) != 4 || tbl.Len() != 4 {
		t.Fatalf("aggregates = %d, table rows = %d, want 4 (2 strategies x 2 counts)", len(aggs), tbl.Len())
	}
	lines := strings.Split(tbl.String(), "\n")[2:]
	for i, agg := range aggs {
		if agg.Strategy != arms[i].Config.Strategy.Name || agg.Attackers != arms[i].Config.AttackerCount {
			t.Errorf("arm %d ran (%s, %d), want %v", i, agg.Strategy, agg.Attackers, arms[i].Labels)
		}
		if agg.CaptureRatio.Trials != 2 {
			t.Errorf("arm %d trials = %d, want 2", i, agg.CaptureRatio.Trials)
		}
		f := strings.Fields(lines[i])
		if periods := f[len(f)-1]; (agg.CapturePeriods.N == 0) != (periods == "-") {
			t.Errorf("arm %d: %d captures render capture time %q", i, agg.CapturePeriods.N, periods)
		}
	}
}

// strategy resolves a strategy name the table holds.
func strategy(t *testing.T, name string) attacker.Entry {
	t.Helper()
	e, err := attacker.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAggregateCarriesAttackerCoordinates(t *testing.T) {
	cfg := core.Default()
	cfg.Strategy = strategy(t, "cautious")
	cfg.AttackerCount = 3
	cfg.SharedHistory = true
	agg, err := Run(Spec{GridSize: 5, Config: cfg, Repeats: 1, BaseSeed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if agg.Strategy != "cautious" || agg.Attackers != 3 || !agg.SharedHistory {
		t.Errorf("aggregate coordinates = (%s, %d, %v), want (cautious, 3, true)",
			agg.Strategy, agg.Attackers, agg.SharedHistory)
	}
}
