package core

import (
	"reflect"
	"testing"
	"time"

	"slpdas/internal/attacker"
	"slpdas/internal/energy"
	"slpdas/internal/fault"
	"slpdas/internal/topo"
)

// freshResult runs (cfg, seed) on a brand-new network.
func freshResult(t *testing.T, g *topo.Graph, sink, source topo.NodeID, cfg Config, seed uint64) *Result {
	t.Helper()
	net, err := NewNetwork(g, sink, source, cfg, seed)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestResetMatchesFreshNetwork is the state-leak audit for the arena path:
// a single network replayed through Reset across different configs and
// seeds must produce Results deeply equal to fresh networks — every
// counter, latency sample, attacker path, message tally and schedule
// violation included. Any field of Network or node that Reset misses shows
// up here as a divergence on the second or third run.
func TestResetMatchesFreshNetwork(t *testing.T) {
	g, err := topo.DefaultGrid(7)
	if err != nil {
		t.Fatal(err)
	}
	sink, source := topo.GridCentre(7), topo.GridTopLeft()

	cfgSLP := DefaultSLP(2)
	cfgPlain := Default()
	cfgPlain.Collisions = true
	cfgTeam := Default()
	cfgTeam.AttackerCount = 2
	cfgTeam.Attacker.H = 2
	cfgTeam.SharedHistory = true
	cfgTeam.Strategy = must(attacker.ByName("unvisited-first"))
	cfgChurn := DefaultSLP(2)
	cfgChurn.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.2, MTTR: 2}
	cfgFail := Default()
	cfgFail.Faults = fault.Spec{Kind: fault.Fail, Nodes: []topo.NodeID{1, 9}, At: 2 * time.Second}
	cfgShadow := DefaultSLP(2)
	cfgShadow.Channel = mustChannel("logdist:2.4:4@sinr:3")
	es, err := energy.Parse("battery:5")
	if err != nil {
		t.Fatal(err)
	}
	cfgShadow.Energy = es
	cfgSINR := Default()
	cfgSINR.Channel = mustChannel("logdist:2.4:4@sinr:3")
	cfgDrain := Default()
	if cfgDrain.Energy, err = energy.Parse("battery:2"); err != nil {
		t.Fatal(err)
	}

	// The sequence deliberately alternates protocol, collision model,
	// attacker team shape and seed so each Reset must rewind state the
	// previous run dirtied.
	sequence := []struct {
		name string
		cfg  Config
		seed uint64
	}{
		{"slp/seed1", cfgSLP, 1},
		{"plain-collisions/seed2", cfgPlain, 2},
		{"team/seed3", cfgTeam, 3},
		{"churn/seed4", cfgChurn, 4},
		// Named nodes dead mid-discovery: the crashed pair must rejoin the
		// next run alive.
		{"fail/seed9", cfgFail, 9},
		// Shadowed SINR channel with battery depletion: Reset must redraw
		// the link verdicts for the new seed and rewind every energy field.
		{"shadow-energy/seed5", cfgShadow, 5},
		// The same capture channel straight after, at another seed: the
		// medium's per-edge verdicts from seed 5 must not carry over.
		{"sinr/seed7", cfgSINR, 7},
		// Batteries that run flat: the deaths count as energy deaths, not
		// as node failures, in a run without faults.
		{"drain/seed6", cfgDrain, 6},
		{"slp/seed1 again", cfgSLP, 1}, // exact replay of run 0, after faulted and energy runs
	}

	net, err := NewNetwork(g, sink, source, sequence[0].cfg, sequence[0].seed)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	var arenaResults []*Result
	for i, step := range sequence {
		if i > 0 {
			if err := net.Reset(step.cfg, step.seed); err != nil {
				t.Fatalf("Reset(%s): %v", step.name, err)
			}
		}
		res, err := net.Run()
		if err != nil {
			t.Fatalf("Run(%s): %v", step.name, err)
		}
		arenaResults = append(arenaResults, res)
	}

	for i, step := range sequence {
		// A fault-free run reports no failures, battery deaths included.
		if want := len(step.cfg.Faults.Nodes); (want > 0 || step.cfg.Faults.Empty()) && arenaResults[i].NodesFailed != want {
			t.Errorf("%s: %d nodes failed, want %d", step.name, arenaResults[i].NodesFailed, want)
		}
		fresh := freshResult(t, g, sink, source, step.cfg, step.seed)
		if !reflect.DeepEqual(arenaResults[i], fresh) {
			t.Errorf("%s: arena result diverges from fresh network:\narena: %+v\nfresh: %+v",
				step.name, arenaResults[i], fresh)
		}
	}
	last := len(sequence) - 1
	if !reflect.DeepEqual(arenaResults[0], arenaResults[last]) {
		t.Errorf("replaying (cfg, seed) on the same network diverged:\nfirst: %+v\nagain: %+v",
			arenaResults[0], arenaResults[last])
	}
}

// TestResultOutlivesNextRun: a Result a Network returned stays as it was
// when the Network is Reset and run again. The copy to compare it with is
// an identical run on a second network.
func TestResultOutlivesNextRun(t *testing.T) {
	g, err := topo.DefaultGrid(7)
	if err != nil {
		t.Fatal(err)
	}
	sink, source := topo.GridCentre(7), topo.GridTopLeft()
	cfg := DefaultSLP(2)
	cfg.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.2, MTTR: 2}
	net, err := NewNetwork(g, sink, source, cfg, 1)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	first, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := freshResult(t, g, sink, source, cfg, 1)
	if err := net.Reset(cfg, 2); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("the next run changed an earlier Result:\nnow:  %+v\nwant: %+v", first, want)
	}
}
