package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"slpdas/internal/core"
	"slpdas/internal/topo"
)

// Engine is the one executor behind every simulated evaluation: Run,
// RunFigure5, RunOverhead, the simulated ablation sweeps and the campaign
// engine in internal/campaign all hand it their resolved cells. It runs
// every repeat of every cell through one bounded worker pool and reduces
// each cell strictly in repeat order, so the aggregates are a pure
// function of the cells regardless of worker count or scheduling.
//
// A cell is a Spec: its topology, config, repeats and its own BaseSeed,
// repeat r running on BaseSeed + r. The seed layout is therefore data the
// caller chooses — Figure 5 gives every cell the same BaseSeed, campaigns
// give cell c BaseSeed + c·Repeats — not a property of the engine.
type Engine struct {
	// Workers bounds the number of concurrently running simulations
	// across all cells (0 = GOMAXPROCS).
	Workers int
	// KeepResults retains every Result on the emitted aggregates and
	// summarises them in batch (see Accumulator.KeepResults). Without it
	// results stream through the accumulator and are freed as they fold.
	KeepResults bool
	// Exec, when non-nil, replaces the engine's own network reuse for one
	// repeat; tests substitute it to instrument the pool.
	Exec func(g *topo.Graph, sink, source topo.NodeID, cfg core.Config, seed uint64) (*core.Result, error)
}

// Run executes every repeat of every cell and calls emit once per cell, in
// cell order, from the calling goroutine, as soon as that cell and every
// earlier one have folded. err is the cell's lowest-repeat run error (nil
// when every repeat succeeded); agg.Failures counts the failed repeats.
// A non-nil error from emit stops the pool — cells not yet started are
// never run — and is returned as is. Topologies are resolved and repeats
// checked before any simulation starts.
func (e Engine) Run(cells []Spec, emit func(i int, agg *Aggregate, err error) error) error {
	states := make([]cellState, len(cells))
	jobsTotal := 0
	for i, spec := range cells {
		if spec.Repeats <= 0 {
			return fmt.Errorf("experiment: repeats must be positive, got %d", spec.Repeats)
		}
		g, sink, source, err := spec.ResolveTopology()
		if err != nil {
			return err
		}
		acc := NewAccumulator(spec, g)
		acc.KeepResults = e.KeepResults
		states[i] = cellState{spec: spec, g: g, sink: sink, source: source, acc: acc, done: make(chan struct{})}
		jobsTotal += spec.Repeats
	}
	if jobsTotal == 0 {
		return nil
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobsTotal {
		workers = jobsTotal
	}

	// Jobs leave the feeder in cell order, so each worker sees its cells
	// in increasing order and, with topology the outermost axis of every
	// caller, rewires its network slot only when the topology changes.
	type job struct{ cell, rep int }
	jobs := make(chan job)
	quit := make(chan struct{})
	go func() {
		defer close(jobs)
		for c := range states {
			for r := 0; r < states[c].spec.Repeats; r++ {
				select {
				case jobs <- job{cell: c, rep: r}:
				case <-quit:
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var net slot
			for j := range jobs {
				cs := &states[j.cell]
				seed := cs.spec.BaseSeed + uint64(j.rep)
				var res *core.Result
				var err error
				if e.Exec != nil {
					res, err = e.Exec(cs.g, cs.sink, cs.source, cs.spec.Config, seed)
				} else {
					res, err = net.run(cs, seed)
				}
				if err != nil {
					err = fmt.Errorf("seed %d: %w", seed, err)
				}
				cs.deposit(j.rep, res, err)
			}
		}()
	}

	for i := range states {
		cs := &states[i]
		<-cs.done
		agg := cs.acc.Finalize()
		agg.Failures = cs.failures
		// Release the reduction state so a long run's memory is bounded
		// by the cells in flight, not by the cells emitted.
		cs.acc = nil
		if err := emit(i, agg, cs.firstErr); err != nil {
			close(quit)
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	return nil
}

// slot is one worker's reusable network. It is wired on the worker's
// first job and again whenever the (graph, sink, source) triple changes;
// every other job rewinds it with Network.Reset, which is pinned to be
// indistinguishable from fresh construction. A network that fails to wire
// or reset (a bad per-cell config) is dropped, so the next job starts
// from clean wiring.
type slot struct {
	net          *core.Network
	g            *topo.Graph
	sink, source topo.NodeID
}

func (s *slot) run(cs *cellState, seed uint64) (*core.Result, error) {
	if s.net == nil || s.g != cs.g || s.sink != cs.sink || s.source != cs.source {
		s.net = nil
		net, err := core.NewNetwork(cs.g, cs.sink, cs.source, cs.spec.Config, seed)
		if err != nil {
			return nil, err
		}
		s.net, s.g, s.sink, s.source = net, cs.g, cs.sink, cs.source
		return net.Run()
	}
	if err := s.net.Reset(cs.spec.Config, seed); err != nil {
		s.net = nil
		return nil, err
	}
	return s.net.Run()
}

// cellState is one cell's resolved inputs and its streaming index-ordered
// reduction: results deposited by any worker in any order are folded into
// the accumulator strictly by repeat index, so the aggregate is identical
// whether the cell's repeats ran on one worker or the whole pool.
// Out-of-order arrivals park in pending (bounded by pool concurrency).
type cellState struct {
	spec         Spec
	g            *topo.Graph
	sink, source topo.NodeID

	mu       sync.Mutex
	next     int // next repeat index to fold
	pending  map[int]pendingRun
	acc      *Accumulator
	failures int
	firstErr error // lowest-repeat-index error
	done     chan struct{}
}

type pendingRun struct {
	res *core.Result
	err error
}

// deposit hands repeat rep's outcome to the reducer. Exactly one call per
// repeat; the cell's done channel closes when the last repeat has folded.
func (cs *cellState) deposit(rep int, res *core.Result, err error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if rep != cs.next {
		if cs.pending == nil {
			cs.pending = make(map[int]pendingRun)
		}
		cs.pending[rep] = pendingRun{res: res, err: err}
		return
	}
	cs.fold(res, err)
	for {
		p, ok := cs.pending[cs.next]
		if !ok {
			break
		}
		delete(cs.pending, cs.next)
		cs.fold(p.res, p.err)
	}
	if cs.next == cs.spec.Repeats {
		close(cs.done)
	}
}

func (cs *cellState) fold(res *core.Result, err error) {
	if err != nil {
		cs.failures++
		if cs.firstErr == nil {
			cs.firstErr = err
		}
	} else {
		cs.acc.Add(res)
	}
	cs.next++
}
