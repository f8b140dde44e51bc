package slpdas_test

import (
	"strings"
	"testing"

	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/protocol"
)

// The tests below drive the entry points the cmd/slpsim commands call,
// end to end on small grids: experiment.Run, campaign.BuildConfig,
// campaign.Run, experiment.RunFigure5, experiment.RunOverhead and
// experiment.TableI.

func TestRunDefaults(t *testing.T) {
	agg, err := experiment.Run(experiment.Spec{GridSize: 5, Config: core.Default(), Repeats: 3, BaseSeed: 9})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if agg.CaptureRatio.Trials != 3 {
		t.Errorf("runs = %d", agg.CaptureRatio.Trials)
	}
	if agg.Protocol != "protectionless-das" {
		t.Errorf("Protocol = %q", agg.Protocol)
	}
	if agg.ScheduleValid.Value() != 1 {
		t.Errorf("valid schedules = %v", agg.ScheduleValid)
	}
	if agg.ControlMessages.Mean <= 0 {
		t.Error("no control messages accounted")
	}
}

func TestRunSLP(t *testing.T) {
	agg, err := experiment.Run(experiment.Spec{GridSize: 5, Config: core.DefaultSLP(2), Repeats: 3, BaseSeed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if agg.ChangedNodes.Mean <= 0 {
		t.Error("SLP runs changed no slots")
	}
}

// buildConfig is campaign.BuildConfig with the paper's attacker and every
// axis but the protocol and channel at its default.
func buildConfig(proto, channel string) (core.Config, error) {
	return campaign.BuildConfig(proto, 3, campaign.AttackerSetup{Params: attacker.Params{R: 1, H: 0, M: 1}},
		channel, false, "", "")
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, c := range []struct{ proto, channel string }{
		{"bogus", "ideal"}, {protocol.NameProtectionless, "bernoulli:2"}, {protocol.NameProtectionless, "wat"},
	} {
		if _, err := buildConfig(c.proto, c.channel); err == nil {
			t.Errorf("protocol %q, channel %q accepted", c.proto, c.channel)
		}
	}
}

// TestSimConfigAcceptsLegacyLossSpellings: the pre-channel loss-model
// spellings remain valid channel specs, canonicalised through the channel
// grammar.
func TestSimConfigAcceptsLegacyLossSpellings(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "ideal"}, {"ideal", "ideal"}, {"rssi", "rssi"}, {"bernoulli:0.25", "bernoulli:0.25"},
	} {
		cfg, err := buildConfig(protocol.NameProtectionless, tc.in)
		if err != nil {
			t.Errorf("channel %q: %v", tc.in, err)
			continue
		}
		if got := cfg.Channel.Spec(); got != tc.want {
			t.Errorf("channel %q: canonical %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTableIRendered(t *testing.T) {
	tbl := experiment.TableI().String()
	if !strings.Contains(tbl, "Psrc") || !strings.Contains(tbl, "5.5s") {
		t.Errorf("Table I = %q", tbl)
	}
}

func TestFigure5Facade(t *testing.T) {
	fig, err := experiment.RunFigure5(experiment.Figure5Spec{GridSizes: []int{5}, SearchDistance: 2, Repeats: 4, BaseSeed: 17})
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if tbl := fig.Table().String(); !strings.Contains(tbl, "network size") {
		t.Errorf("table = %q", tbl)
	}
	if len(fig.Points) != 1 || fig.Points[0].GridSize != 5 {
		t.Errorf("points = %+v", fig.Points)
	}
}

func TestRunCampaignFacade(t *testing.T) {
	sum, err := campaign.Run(campaign.Spec{
		GridSizes:       []int{5},
		SearchDistances: []int{2},
		Repeats:         2,
		BaseSeed:        7,
	})
	if err != nil {
		t.Fatalf("campaign.Run: %v", err)
	}
	if sum.Cells != 2 || sum.Failures != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	rows := sum.Rows
	if len(rows) != 2 || rows[0].Protocol != protocol.NameProtectionless || rows[1].Protocol != protocol.AliasSLP {
		t.Errorf("rows = %+v", rows)
	}
}

func TestOverheadFacade(t *testing.T) {
	o, err := experiment.RunOverhead(5, 2, 3, 23)
	if err != nil {
		t.Fatalf("RunOverhead: %v", err)
	}
	if tbl := o.Table().String(); !strings.Contains(tbl, "CONTROL TOTAL") {
		t.Errorf("table = %q", tbl)
	}
}
