package slpdas

import (
	"strings"
	"testing"

	"slpdas/internal/campaign"
)

func TestRunDefaults(t *testing.T) {
	sum, err := Run(SimConfig{GridSize: 5, Repeats: 3, Seed: 9})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Runs != 3 {
		t.Errorf("Runs = %d", sum.Runs)
	}
	if sum.Protocol != Protectionless {
		t.Errorf("Protocol = %q", sum.Protocol)
	}
	if sum.ScheduleValidRatio != 1 {
		t.Errorf("ScheduleValidRatio = %v", sum.ScheduleValidRatio)
	}
	if sum.ControlMessages <= 0 {
		t.Error("no control messages accounted")
	}
}

func TestRunSLP(t *testing.T) {
	sum, err := Run(SimConfig{GridSize: 5, Protocol: SLPAware, SearchDistance: 2, Repeats: 3, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.ChangedNodes <= 0 {
		t.Error("SLP runs changed no slots")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(SimConfig{GridSize: 5, Protocol: "bogus", Repeats: 1}); err == nil {
		t.Error("bogus protocol accepted")
	}
	if _, err := Run(SimConfig{GridSize: 5, Repeats: 1, LossModel: "bernoulli:2"}); err == nil {
		t.Error("bad loss probability accepted")
	}
	if _, err := Run(SimConfig{GridSize: 5, Repeats: 1, LossModel: "wat"}); err == nil {
		t.Error("unknown loss model accepted")
	}
}

// TestSimConfigAcceptsLegacyLossSpellings: the pre-channel loss-model
// spellings remain valid SimConfig.LossModel values, canonicalised
// through the channel grammar.
func TestSimConfigAcceptsLegacyLossSpellings(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "ideal"}, {"ideal", "ideal"}, {"rssi", "rssi"}, {"bernoulli:0.25", "bernoulli:0.25"},
	} {
		cfg, err := SimConfig{LossModel: tc.in}.withDefaults().coreConfig()
		if err != nil {
			t.Errorf("LossModel %q: %v", tc.in, err)
			continue
		}
		if cfg.Channel != tc.want {
			t.Errorf("LossModel %q: channel %q, want %q", tc.in, cfg.Channel, tc.want)
		}
	}
}

func TestTableIRendered(t *testing.T) {
	tbl := TableI()
	if !strings.Contains(tbl, "Psrc") || !strings.Contains(tbl, "5.5s") {
		t.Errorf("Table I = %q", tbl)
	}
}

func TestFigure5Facade(t *testing.T) {
	tbl, fig, err := Figure5(2, 4, 17, 5)
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if !strings.Contains(tbl, "network size") {
		t.Errorf("table = %q", tbl)
	}
	if len(fig.Points) != 1 || fig.Points[0].GridSize != 5 {
		t.Errorf("points = %+v", fig.Points)
	}
}

func TestRunCampaignFacade(t *testing.T) {
	sum, err := RunCampaign(campaign.Spec{
		GridSizes:       []int{5},
		SearchDistances: []int{2},
		Repeats:         2,
		BaseSeed:        7,
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if sum.Cells != 2 || sum.Failures != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	rows := sum.Rows
	if len(rows) != 2 || rows[0].Protocol != string(Protectionless) || rows[1].Protocol != string(SLPAware) {
		t.Errorf("rows = %+v", rows)
	}
}

func TestOverheadFacade(t *testing.T) {
	tbl, o, err := Overhead(5, 2, 3, 23)
	if err != nil {
		t.Fatalf("Overhead: %v", err)
	}
	if !strings.Contains(tbl, "CONTROL TOTAL") || o == nil {
		t.Errorf("table = %q", tbl)
	}
}
