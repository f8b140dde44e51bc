package experiment

import (
	"strings"
	"testing"

	"slpdas/internal/core"
	"slpdas/internal/verify"
)

func TestSearchDistanceSweep(t *testing.T) {
	points, err := SearchDistanceSweep(5, []int{1, 2}, 3, 31, 0)
	if err != nil {
		t.Fatalf("SearchDistanceSweep: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.CaptureRatio.Trials != 3 {
			t.Errorf("sd %d: trials = %d", p.SearchDistance, p.CaptureRatio.Trials)
		}
	}
	tbl := SearchDistanceTable(points).String()
	if !strings.Contains(tbl, "search distance") || !strings.Contains(tbl, "changed nodes") {
		t.Errorf("table = %q", tbl)
	}
}

func TestSearchDistanceSweepDefaults(t *testing.T) {
	points, err := SearchDistanceSweep(5, nil, 1, 3, 0)
	if err != nil {
		t.Fatalf("SearchDistanceSweep: %v", err)
	}
	if len(points) != 7 {
		t.Errorf("default sweep has %d points, want 7", len(points))
	}
}

func TestAttackerSweepMonotoneInStrength(t *testing.T) {
	params := []verify.Params{
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
	points, err := LossModelSweep(5, 2, 2, 9, 0, map[string]string{
		"ideal":     "ideal",
		"bern-0.05": "bernoulli:0.05",
	})
	if err != nil {
		t.Fatalf("LossModelSweep: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Deterministic alphabetical order.
	if points[0].Model != "bern-0.05" || points[1].Model != "ideal" {
		t.Errorf("order = %s, %s", points[0].Model, points[1].Model)
	}
	tbl := LossModelTable(points).String()
	if !strings.Contains(tbl, "channel model") {
		t.Errorf("table = %q", tbl)
	}
}

func TestLossModelSweepDefaults(t *testing.T) {
	points, err := LossModelSweep(5, 2, 1, 9, 0, nil)
	if err != nil {
		t.Fatalf("LossModelSweep: %v", err)
	}
	if len(points) != 3 {
		t.Errorf("default sweep has %d points, want 3", len(points))
	}
}

func TestStrategySweepCoversRegistryAndCounts(t *testing.T) {
	points, err := StrategySweep(5, core.Default(), []string{"first-heard", "random-walk"}, []int{1, 2}, 2, 1, 0)
	if err != nil {
		t.Fatalf("StrategySweep: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4 (2 strategies x 2 counts)", len(points))
	}
	want := []struct {
		s string
		n int
	}{{"first-heard", 1}, {"first-heard", 2}, {"random-walk", 1}, {"random-walk", 2}}
	for i, p := range points {
		if p.Strategy != want[i].s || p.Attackers != want[i].n {
			t.Errorf("point %d = (%s, %d), want %+v", i, p.Strategy, p.Attackers, want[i])
		}
		if p.CaptureRatio.Trials != 2 {
			t.Errorf("point %d trials = %d, want 2", i, p.CaptureRatio.Trials)
		}
	}
	tbl := StrategyTable(points)
	if tbl.Len() != 4 {
		t.Errorf("table rows = %d, want 4", tbl.Len())
	}
	// Defaulting pulls in the whole registry.
	all, err := StrategySweep(5, core.Default(), nil, nil, 1, 1, 0)
	if err != nil {
		t.Fatalf("StrategySweep defaults: %v", err)
	}
	if len(all) < 7 {
		t.Errorf("default sweep covers %d strategies, want the registry (>= 7)", len(all))
	}
}

func TestAggregateCarriesAttackerCoordinates(t *testing.T) {
	cfg := core.Default()
	cfg.Strategy = "cautious"
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
