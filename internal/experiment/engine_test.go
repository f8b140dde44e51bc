package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"slpdas/internal/core"
	"slpdas/internal/topo"
)

// stubExec returns a canned result without simulating; seeds divisible by
// failEvery (when positive) fail.
func stubExec(failEvery uint64) func(*topo.Graph, topo.NodeID, topo.NodeID, core.Config, uint64) (*core.Result, error) {
	return func(g *topo.Graph, _, _ topo.NodeID, _ core.Config, seed uint64) (*core.Result, error) {
		if failEvery > 0 && seed%failEvery == 0 {
			return nil, fmt.Errorf("stub failure")
		}
		return &core.Result{Seed: seed, Nodes: g.Len(), Captured: seed%2 == 0}, nil
	}
}

// TestEngineSeedLayoutIsCellData: every cell runs repeat r on its own
// BaseSeed + r, and cells are emitted in order with their results in
// repeat order, whatever the worker count.
func TestEngineSeedLayoutIsCellData(t *testing.T) {
	specs, err := gridCells(5, 4, 0, core.Default(), core.DefaultSLP(2))
	if err != nil {
		t.Fatal(err)
	}
	specs[0].BaseSeed, specs[1].BaseSeed = 100, 7
	for _, workers := range []int{1, 3, 8} {
		var order []int
		err := Engine{Workers: workers, KeepResults: true, Exec: stubExec(0)}.Run(specs, func(i int, agg *Aggregate, err error) error {
			order = append(order, i)
			if err != nil {
				t.Errorf("cell %d: %v", i, err)
			}
			for r, res := range agg.Results {
				if want := specs[i].BaseSeed + uint64(r); res.Seed != want {
					t.Errorf("workers %d cell %d repeat %d: seed %d, want %d", workers, i, r, res.Seed, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Errorf("workers %d: emit order %v", workers, order)
		}
	}
}

// TestEngineCountsFailuresInRepeatOrder: failed repeats are counted on
// the aggregate and the cell's error is its lowest-repeat failure.
func TestEngineCountsFailuresInRepeatOrder(t *testing.T) {
	specs, err := gridCells(5, 9, 1, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	err = Engine{Workers: 4, Exec: stubExec(3)}.Run(specs, func(_ int, agg *Aggregate, err error) error {
		// Seeds 1..9: 3, 6 and 9 fail.
		if agg.Failures != 3 || agg.CaptureRatio.Trials != 6 {
			t.Errorf("failures %d, trials %d; want 3, 6", agg.Failures, agg.CaptureRatio.Trials)
		}
		if err == nil || err.Error() != "seed 3: stub failure" {
			t.Errorf("cell error = %v, want the seed 3 failure", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineStopsOnEmitError: an emit error stops the pool before the
// remaining cells run and is returned unchanged. Jobs of later cells hold
// until the stop, so the pool cannot race ahead of the first emit.
func TestEngineStopsOnEmitError(t *testing.T) {
	const cells, repeats = 20, 5
	cfgs := make([]core.Config, cells)
	for i := range cfgs {
		cfgs[i] = core.Default()
	}
	specs, err := gridCells(5, repeats, 0, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].BaseSeed = uint64(i * repeats)
	}
	var ran atomic.Int64
	exec := stubExec(0)
	stop := errors.New("stop")
	stopped := make(chan struct{})
	err = Engine{Workers: 2, Exec: func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error) {
		ran.Add(1)
		if seed >= repeats {
			<-stopped
		}
		return exec(g, sink, source, cfg, seed)
	}}.Run(specs, func(i int, _ *Aggregate, _ error) error {
		if i == 0 {
			close(stopped)
			return stop
		}
		t.Errorf("cell %d emitted after the stop", i)
		return nil
	})
	if err != stop {
		t.Fatalf("Run = %v, want the emit error", err)
	}
	if n := ran.Load(); n >= cells*repeats {
		t.Errorf("all %d jobs ran despite the stop", n)
	}
}

// TestEngineRejectsBadCellsBeforeRunning: a non-positive repeat count or
// an unbuildable topology fails before any job runs.
func TestEngineRejectsBadCellsBeforeRunning(t *testing.T) {
	exec := func(*topo.Graph, topo.NodeID, topo.NodeID, core.Config, uint64) (*core.Result, error) {
		t.Error("job ran for an invalid cell list")
		return nil, nil
	}
	emit := func(int, *Aggregate, error) error { return nil }
	for name, specs := range map[string][]Spec{
		"zero repeats": {{GridSize: 5, Config: core.Default(), Repeats: 1}, {GridSize: 5, Config: core.Default()}},
		"bad grid":     {{GridSize: 5, Config: core.Default(), Repeats: 1}, {GridSize: -1, Config: core.Default(), Repeats: 1}},
	} {
		if err := (Engine{Exec: exec}).Run(specs, emit); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEngineReusesNetworksAcrossCells: the engine's own network slot,
// rewound across configs and rewired across topologies, gives the same
// Results as a fresh network per run.
func TestEngineReusesNetworksAcrossCells(t *testing.T) {
	var specs []Spec
	for _, size := range []int{5, 7} {
		cells, err := gridCells(size, 3, 11, core.Default(), core.DefaultSLP(2), core.Default())
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, cells...)
	}
	err := Engine{Workers: 1, KeepResults: true}.Run(specs, func(i int, agg *Aggregate, err error) error {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		s := specs[i]
		for r, got := range agg.Results {
			net, err := core.NewNetwork(s.Topology, s.Sink, s.Source, s.Config, s.BaseSeed+uint64(r))
			if err != nil {
				t.Fatal(err)
			}
			want, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cell %d repeat %d: reused network diverged from a fresh one", i, r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
