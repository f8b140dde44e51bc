package core

import (
	"math"
	"reflect"
	"testing"

	"slpdas/internal/fault"
	"slpdas/internal/topo"
)

// TestChurnRunRepairsSchedule drives a full churn run end to end: nodes
// crash mid-data-phase, rejoin after the MTTR, and the degradation metrics
// record the failures, the recoveries and the schedule self-healing.
func TestChurnRunRepairsSchedule(t *testing.T) {
	g, err := topo.DefaultGrid(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.25, MTTR: 2}
	net, err := NewNetwork(g, topo.GridCentre(7), topo.GridTopLeft(), cfg, 5)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.NodesFailed == 0 {
		t.Fatal("churn at rate 0.25 on 47 eligible nodes injected nothing")
	}
	if res.NodesRecovered == 0 {
		t.Error("no node recovered; MTTR of 2 periods should leave most rejoins inside the horizon")
	}
	if res.NodesRecovered > res.NodesFailed {
		t.Errorf("recovered %d > failed %d", res.NodesRecovered, res.NodesFailed)
	}
	if res.RepairPeriods < 0 {
		t.Error("no schedule repair observed: rejoining nodes should re-acquire slots")
	}
	for name, v := range map[string]float64{
		"RepairPeriods":  res.RepairPeriods,
		"DeliveryBefore": res.DeliveryBefore,
		"DeliveryDuring": res.DeliveryDuring,
		"DeliveryAfter":  res.DeliveryAfter,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
	for name, v := range map[string]float64{
		"DeliveryBefore": res.DeliveryBefore,
		"DeliveryDuring": res.DeliveryDuring,
		"DeliveryAfter":  res.DeliveryAfter,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v, want a ratio in [0,1]", name, v)
		}
	}
}

// TestFaultRunDeterministic: a faulted run is a pure function of
// (config, seed) — two fresh networks agree on every Result field.
func TestFaultRunDeterministic(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSLP(2)
	cfg.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.3, MTTR: 1.5}
	a := freshResult(t, g, topo.GridCentre(5), topo.GridTopLeft(), cfg, 12)
	b := freshResult(t, g, topo.GridCentre(5), topo.GridTopLeft(), cfg, 12)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (cfg, seed) diverged under churn:\na: %+v\nb: %+v", a, b)
	}
}

// TestSinkBlackoutPartitionVerdict pins the acceptance criterion for
// graceful degradation under partition: a blackout that swallows the sink
// terminates within the event budget, sets PartitionDetected, and reports
// sane (non-NaN) metrics.
func TestSinkBlackoutPartitionVerdict(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	// Radius 10 radio ranges covers the whole 5×5 grid from any centre:
	// the sink dies wherever the blackout lands.
	cfg.Faults = fault.Spec{Kind: fault.Blackout, Radius: 10, Period: 1}
	net, err := NewNetwork(g, topo.GridCentre(5), topo.GridTopLeft(), cfg, 3)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run must terminate cleanly with a verdict, got: %v", err)
	}
	if !res.PartitionDetected {
		t.Error("sink died in the blackout but PartitionDetected is false")
	}
	if res.NodesFailed != g.Len() {
		t.Errorf("NodesFailed = %d, want the whole network (%d)", res.NodesFailed, g.Len())
	}
	for name, v := range map[string]float64{
		"CapturePeriods": res.CapturePeriods,
		"SafetyPeriod":   res.SafetyPeriod,
		"PeriodsRun":     res.PeriodsRun,
		"RepairPeriods":  res.RepairPeriods,
		"DeliveryBefore": res.DeliveryBefore,
		"DeliveryDuring": res.DeliveryDuring,
		"DeliveryAfter":  res.DeliveryAfter,
		"MeanLatency":    res.MeanDeliveryLatency(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
	if res.Captured {
		t.Error("attacker captured a source whose network died around it at period 1")
	}
}

// TestFaultSpecValidatedByConfig: an invalid fault spec is caught by
// Config.Validate at NewNetwork/Reset time.
func TestFaultSpecValidatedByConfig(t *testing.T) {
	g, err := topo.DefaultGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Faults = fault.Spec{Kind: fault.Crash, Rate: 2}
	if _, err := NewNetwork(g, topo.GridCentre(5), topo.GridTopLeft(), cfg, 1); err == nil {
		t.Error("NewNetwork accepted a crash rate of 2")
	}
}

// TestLinkFaultsDegradeDelivery: persistent link failures leave all nodes
// alive (no partition flag unless the cut disconnects source from sink)
// and never increment the node failure counters.
func TestLinkFaultsDegradeDelivery(t *testing.T) {
	g, err := topo.DefaultGrid(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Faults = fault.Spec{Kind: fault.Link, Rate: 0.2}
	net, err := NewNetwork(g, topo.GridCentre(7), topo.GridTopLeft(), cfg, 8)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.NodesFailed != 0 || res.NodesRecovered != 0 {
		t.Errorf("link faults counted node failures: failed=%d recovered=%d", res.NodesFailed, res.NodesRecovered)
	}
}
