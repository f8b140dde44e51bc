package core_test

import (
	"reflect"
	"testing"

	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/protocol"
	"slpdas/internal/topo"
)

// The tests in this file pin the defaults and spellings that
// campaign.BuildConfig resolves into the table entries core.Config
// carries, by the runs the resolved configs produce.

// paperAttacker is the (1,0,1) attacker of Table I.
var paperAttacker = attacker.Params{R: 1, H: 0, M: 1}

// edgeConfig builds a config through the campaign edge: ideal channel,
// no collisions, faults or energy accounting.
func edgeConfig(t *testing.T, proto string, sd int, atk campaign.AttackerSetup) core.Config {
	t.Helper()
	cfg, err := campaign.BuildConfig(proto, sd, atk, "ideal", false, "", "")
	if err != nil {
		t.Fatalf("BuildConfig(%q): %v", proto, err)
	}
	return cfg
}

// runOn runs cfg once on a fresh side×side grid network, sink centre and
// source top-left.
func runOn(t *testing.T, side int, cfg core.Config, seed uint64) *core.Result {
	t.Helper()
	g, err := topo.DefaultGrid(side)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(g, topo.GridCentre(side), topo.GridTopLeft(), cfg, seed)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run (seed %d): %v", seed, err)
	}
	return res
}

func TestSingleAttackerUnchangedByMultiAttackerPlumbing(t *testing.T) {
	// Backward compatibility: a team size of 0 (the legacy zero value)
	// and 1 must produce identical results — same capture outcome, same
	// path.
	legacy := runOn(t, 7, edgeConfig(t, protocol.NameProtectionless, 3, campaign.AttackerSetup{Params: paperAttacker}), 3)
	explicit := runOn(t, 7, edgeConfig(t, protocol.NameProtectionless, 3, campaign.AttackerSetup{Params: paperAttacker, Count: 1}), 3)
	if legacy.Attackers != 1 || explicit.Attackers != 1 {
		t.Errorf("attackers = %d, %d, want 1", legacy.Attackers, explicit.Attackers)
	}
	if legacy.Captured != explicit.Captured || legacy.CaptureAt != explicit.CaptureAt {
		t.Errorf("capture differs: legacy %v@%v vs explicit %v@%v",
			legacy.Captured, legacy.CaptureAt, explicit.Captured, explicit.CaptureAt)
	}
	if !reflect.DeepEqual(legacy.AttackerPath, explicit.AttackerPath) {
		t.Fatalf("paths differ: %v vs %v", legacy.AttackerPath, explicit.AttackerPath)
	}
}

func TestNamedStrategyMatchesLegacyDecision(t *testing.T) {
	// Naming first-heard explicitly must behave exactly like leaving the
	// strategy empty.
	a := runOn(t, 7, edgeConfig(t, protocol.NameProtectionless, 3, campaign.AttackerSetup{Params: paperAttacker, Strategy: "first-heard"}), 1)
	b := runOn(t, 7, edgeConfig(t, protocol.NameProtectionless, 3, campaign.AttackerSetup{Params: paperAttacker}), 1)
	if a.Captured != b.Captured || a.CaptureAt != b.CaptureAt {
		t.Errorf("named strategy diverges: %v@%v vs %v@%v", a.Captured, a.CaptureAt, b.Captured, b.CaptureAt)
	}
	if a.Strategy != "first-heard" || b.Strategy != "first-heard" {
		t.Errorf("strategy labels = %q, %q", a.Strategy, b.Strategy)
	}
}

// TestProtocolFieldAliasesBool pins the compatibility contract:
// DefaultSLP, the canonical protocol name and the "slp" alias select the
// same family.
func TestProtocolFieldAliasesBool(t *testing.T) {
	want := runOn(t, 5, core.DefaultSLP(2), 5)
	for _, name := range []string{protocol.NameSLPDAS, protocol.AliasSLP} {
		got := runOn(t, 5, edgeConfig(t, name, 2, campaign.AttackerSetup{Params: paperAttacker}), 5)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q config diverged from DefaultSLP:\ngot: %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestUnknownProtocolRejected mirrors the attacker-strategy check: a
// configuration naming an unknown family or strategy is refused where
// the name is resolved.
func TestUnknownProtocolRejected(t *testing.T) {
	if _, err := campaign.BuildConfig("bogus-routing", 3, campaign.AttackerSetup{Params: paperAttacker}, "ideal", false, "", ""); err == nil {
		t.Fatal("BuildConfig accepted an unknown protocol")
	}
	if _, err := campaign.BuildConfig(protocol.NameProtectionless, 3, campaign.AttackerSetup{Params: paperAttacker, Strategy: "teleport"}, "ideal", false, "", ""); err == nil {
		t.Fatal("BuildConfig accepted an unknown strategy")
	}
}
