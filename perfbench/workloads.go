package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/protocol"
	"slpdas/internal/topo"
	"slpdas/internal/wire"
)

// defaultSeed is the seed golden.go records digests at.
const defaultSeed = 1

// searchDistance is the paper's Figure 5(a) search distance.
const searchDistance = 3

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// executor marks workloads whose operation runs its lifecycles inside
	// an executor (experiment or campaign) that hides them. Their runs
	// always replay the lifecycles through core: to check the executor's
	// output and to count the node·periods simulated.
	executor bool
	// workers is the executor pool size; single-run workloads use one
	// goroutine.
	workers int
	// make builds an instance for one seed, at full or reduced size.
	make func(seed uint64, small bool, workers int, workdir string) instance
}

var workloads = []workload{
	{
		name:     "fig5a-grid",
		executor: true,
		workers:  2,
		make:     newFigure5,
	},
	{
		name:     "churn-sinr-campaign",
		executor: true,
		workers:  2,
		make:     newChurnCampaign,
	},
	{
		name:    "rgg500-faithful",
		workers: 1,
		make:    newRGG500,
	},
	{
		name:    "rgg20k-scale",
		workers: 1,
		make:    newRGG20k,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload's inputs for one seed plus the state its set-up
// built.
type instance interface {
	// setUp performs one cold set-up: topology builds and one
	// core.NewNetwork per (topology, configuration) the workload uses. It
	// replaces whatever an earlier set-up built.
	setUp(tr *tracer, parent spanRef) error
	// ops is the number of distinct operations in one cycle of inputs.
	ops() int
	// warmups is how many leading operations the untimed warm-up runs: one
	// per network the timed operations reuse.
	warmups() int
	// run executes operation k once.
	run(k int, tr *tracer, parent spanRef) opResult
	// lifecycles lists the lifecycles operation k runs, in the order its
	// executor folds them.
	lifecycles(k int) []lifecycle
	// verify checks operation k's reference output against the same
	// lifecycles replayed one by one through core.
	verify(k int, ref *opResult, replayed []*core.Result) error
}

// opResult is what one operation produced.
type opResult struct {
	lifecycles int
	failed     int   // lifecycles that errored or yielded a non-finite metric
	err        error // why the operation failed, if it did
	digest     [32]byte
	// digests holds one digest per lifecycle when the operation exposes
	// its Results; rows holds the campaign's rows.
	digests [][32]byte
	rows    []campaign.Row
}

// cell is one (topology, configuration) pair and the network set-up wired
// for it.
type cell struct {
	g            *topo.Graph
	sink, source topo.NodeID
	cfg          core.Config
	net          *core.Network
}

func (c *cell) wire(tr *tracer, parent spanRef) error {
	s := tr.begin("core.NewNetwork", parent, -1)
	net, err := core.NewNetwork(c.g, c.sink, c.source, c.cfg, 0)
	tr.end(s)
	c.net = net
	return err
}

// lifecycle is one simulated run: a cell at a run seed.
type lifecycle struct {
	c    *cell
	seed uint64
}

// fromResults digests per-lifecycle Results.
func fromResults(results []*core.Result) opResult {
	r := opResult{lifecycles: len(results), digests: make([][32]byte, len(results))}
	for i, res := range results {
		if !finite(res) {
			r.failed++
			r.err = fmt.Errorf("seed %d: non-finite metric", res.Seed)
		}
		r.digests[i] = resultDigest(res)
	}
	return r
}

// verifyDigests compares replayed Results with an operation's
// per-lifecycle digests.
func verifyDigests(ref *opResult, replayed []*core.Result) error {
	if len(replayed) != len(ref.digests) {
		return fmt.Errorf("replayed %d lifecycles, operation ran %d", len(replayed), len(ref.digests))
	}
	for i, res := range replayed {
		if resultDigest(res) != ref.digests[i] {
			return fmt.Errorf("lifecycle %d (seed %d): replay differs from the operation's result", i, res.Seed)
		}
	}
	return nil
}

// figure5 is fig5a-grid: experiment.RunFigure5 over the paper's sizes.
type figure5 struct {
	sizes   []int
	repeats int
	seed    uint64
	workers int
	cells   []*cell // size-major, protectionless then slp-das, as RunFigure5 runs them
}

func newFigure5(seed uint64, small bool, workers int, _ string) instance {
	w := &figure5{sizes: []int{11, 15, 21}, repeats: 20, seed: seed, workers: workers}
	if small {
		w.sizes, w.repeats = []int{5, 7}, 2
	}
	return w
}

func (w *figure5) setUp(tr *tracer, parent spanRef) error {
	var cells []*cell
	for _, size := range w.sizes {
		s := tr.begin("topo.build", parent, -1)
		g, err := topo.DefaultGrid(size)
		tr.end(s)
		if err != nil {
			return err
		}
		for _, cfg := range []core.Config{core.Default(), core.DefaultSLP(searchDistance)} {
			c := &cell{g: g, sink: topo.GridCentre(size), source: topo.GridTopLeft(), cfg: cfg}
			if err := c.wire(tr, parent); err != nil {
				return err
			}
			cells = append(cells, c)
		}
	}
	w.cells = cells
	return nil
}

func (w *figure5) ops() int     { return 1 }
func (w *figure5) warmups() int { return 1 }

func (w *figure5) run(_ int, tr *tracer, parent spanRef) opResult {
	n := len(w.cells) * w.repeats
	s := tr.begin("experiment.RunFigure5", parent, -1)
	fig, err := experiment.RunFigure5(experiment.Figure5Spec{
		GridSizes:      w.sizes,
		SearchDistance: searchDistance,
		Repeats:        w.repeats,
		BaseSeed:       w.seed,
		Workers:        w.workers,
	})
	tr.end(s)
	if err != nil {
		return opResult{lifecycles: n, failed: n, err: err}
	}
	var results []*core.Result
	for _, p := range fig.Points {
		results = append(results, p.ProtectionlessAgg.Results...)
		results = append(results, p.SLPAgg.Results...)
	}
	if len(results) != n {
		return opResult{lifecycles: n, failed: n, err: fmt.Errorf("figure holds %d results, want %d", len(results), n)}
	}
	r := fromResults(results)
	h := sha256.New()
	io.WriteString(h, fig.Table().String())
	for _, d := range r.digests {
		h.Write(d[:])
	}
	h.Sum(r.digest[:0])
	return r
}

func (w *figure5) lifecycles(int) []lifecycle {
	var ls []lifecycle
	for _, c := range w.cells {
		for r := 0; r < w.repeats; r++ {
			ls = append(ls, lifecycle{c: c, seed: w.seed + uint64(r)})
		}
	}
	return ls
}

func (w *figure5) verify(_ int, ref *opResult, replayed []*core.Result) error {
	return verifyDigests(ref, replayed)
}

// churnCampaign is churn-sinr-campaign: campaign.Run with the physical
// layer, batteries and churn live, streamed to a JSONL file.
type churnCampaign struct {
	spec    campaign.Spec
	size    int
	workdir string
	cells   []*cell // one per expanded campaign cell
	bases   []uint64
}

func newChurnCampaign(seed uint64, small bool, workers int, workdir string) instance {
	w := &churnCampaign{size: 11, workdir: workdir, spec: campaign.Spec{
		Protocols: []string{protocol.NameProtectionless, protocol.NameSLPDAS},
		Channels:  []string{"logdist:2.4:4@sinr:3"},
		Energy:    []string{"battery:25"},
		Faults:    []string{"churn:0.15:2"},
		Repeats:   50,
		BaseSeed:  seed,
		Workers:   workers,
	}}
	if small {
		w.size, w.spec.Repeats = 7, 3
	}
	w.spec.GridSizes = []int{w.size}
	return w
}

func (w *churnCampaign) setUp(tr *tracer, parent spanRef) error {
	campaign.ResetTopologyCache()
	expanded, err := w.spec.Expand()
	if err != nil {
		return err
	}
	s := tr.begin("topo.build", parent, -1)
	g, err := topo.DefaultGrid(w.size)
	tr.end(s)
	if err != nil {
		return err
	}
	cells := make([]*cell, len(expanded))
	bases := make([]uint64, len(expanded))
	for i, x := range expanded {
		cfg, err := campaign.BuildConfig(x.Protocol, x.SearchDistance, campaign.AttackerSetup{
			Params:        x.Attacker,
			Strategy:      x.Strategy,
			Count:         x.AttackerCount,
			SharedHistory: x.SharedHistory,
		}, x.LossModel, x.Collisions, x.Faults, x.Energy)
		if err != nil {
			return err
		}
		cfg.PathCap = core.PathRecordingOff // campaigns record no walks unless asked
		cells[i] = &cell{g: g, sink: topo.GridCentre(w.size), source: topo.GridTopLeft(), cfg: cfg}
		if err := cells[i].wire(tr, parent); err != nil {
			return err
		}
		bases[i] = x.BaseSeed
	}
	w.cells, w.bases = cells, bases
	return nil
}

func (w *churnCampaign) ops() int     { return 1 }
func (w *churnCampaign) warmups() int { return 1 }

func (w *churnCampaign) run(_ int, tr *tracer, parent spanRef) opResult {
	n := len(w.cells) * w.spec.Repeats
	fail := func(err error) opResult { return opResult{lifecycles: n, failed: n, err: err} }
	f, err := os.CreateTemp(w.workdir, "campaign-*.jsonl")
	if err != nil {
		return fail(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	h := sha256.New()
	sink := &timedSink{Sink: campaign.NewJSONL(io.MultiWriter(f, h)), tr: tr, parent: parent}
	s := tr.begin("campaign.Run", parent, -1)
	sum, err := campaign.Run(w.spec, sink)
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	if err := sink.Close(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	r := opResult{lifecycles: n, failed: sum.Failures, rows: sum.Rows}
	if len(sum.Rows) != len(w.cells) {
		return fail(fmt.Errorf("campaign emitted %d rows, want %d", len(sum.Rows), len(w.cells)))
	}
	h.Sum(r.digest[:0])
	return r
}

func (w *churnCampaign) lifecycles(int) []lifecycle {
	var ls []lifecycle
	for i, c := range w.cells {
		for r := 0; r < w.spec.Repeats; r++ {
			ls = append(ls, lifecycle{c: c, seed: w.bases[i] + uint64(r)})
		}
	}
	return ls
}

// verify folds the replayed Results of each cell the way the campaign
// does and compares the aggregate with the cell's row.
func (w *churnCampaign) verify(_ int, ref *opResult, replayed []*core.Result) error {
	reps := w.spec.Repeats
	if len(replayed) != len(w.cells)*reps || len(ref.rows) != len(w.cells) {
		return fmt.Errorf("replayed %d lifecycles for %d rows", len(replayed), len(ref.rows))
	}
	for i, c := range w.cells {
		acc := experiment.NewAccumulator(experiment.Spec{
			GridSize: w.size,
			Topology: c.g,
			Sink:     c.sink,
			Source:   c.source,
			Config:   c.cfg,
			Repeats:  reps,
			BaseSeed: w.bases[i],
		}, c.g)
		for _, res := range replayed[i*reps : (i+1)*reps] {
			if !finite(res) {
				return fmt.Errorf("cell %d seed %d: non-finite metric", i, res.Seed)
			}
			acc.Add(res)
		}
		agg, row := acc.Finalize(), ref.rows[i]
		for _, f := range []struct {
			name      string
			replay, x float64
		}{
			{"runs", float64(agg.CaptureRatio.Trials), float64(row.Runs)},
			{"captures", float64(agg.CaptureRatio.Successes), float64(row.Captures)},
			{"schedule_valid_ratio", agg.ScheduleValid.Value(), row.ScheduleValidRatio},
			{"control_messages", agg.ControlMessages.Mean, row.ControlMessages},
			{"total_messages", agg.TotalMessages.Mean, row.TotalMessages},
			{"changed_nodes", agg.ChangedNodes.Mean, row.ChangedNodes},
			{"source_deliveries", agg.SourceDeliveries.Mean, row.SourceDeliveries},
			{"mean_attacker_moves", agg.AttackerMoves.Mean, row.MeanAttackerMoves},
			{"nodes_failed", agg.NodesFailed.Mean, row.NodesFailed},
			{"nodes_recovered", agg.NodesRecovered.Mean, row.NodesRecovered},
			{"mean_capture_wins", agg.CaptureWins.Mean, row.CaptureWins},
			{"energy_total_mj", agg.EnergyTotal.Mean, row.EnergyTotal},
			{"mean_energy_deaths", agg.EnergyDeaths.Mean, row.EnergyDeaths},
		} {
			if f.replay != f.x {
				return fmt.Errorf("cell %d %s: replay %v, row %v", i, f.name, f.replay, f.x)
			}
		}
	}
	return nil
}

// timedSink wraps a campaign sink with a span per row written.
type timedSink struct {
	campaign.Sink
	tr     *tracer
	parent spanRef
}

func (s *timedSink) Write(r campaign.Row) error {
	sp := s.tr.begin("campaign.Sink.Write", s.parent, -1)
	err := s.Sink.Write(r)
	s.tr.end(sp)
	return err
}

// rggRuns is a single-run workload on random geometric graphs: operation k
// is one lifecycle on layout k mod layouts at run seed seed+k.
type rggRuns struct {
	nodes       int
	rangeFactor float64 // radio range in grid spacings
	maxHops     int     // source: hop-farthest node within maxHops of the sink; 0 = no limit
	layouts     int
	perLayout   int
	seed        uint64
	cfg         core.Config
	cells       []*cell
}

func newRGG500(seed uint64, small bool, _ int, _ string) instance {
	cfg := core.DefaultSLP(searchDistance)
	cfg.PathCap = core.PathRecordingOff
	w := &rggRuns{nodes: 500, rangeFactor: 1.8, layouts: 8, perLayout: 3, seed: seed, cfg: cfg}
	if small {
		w.nodes, w.layouts, w.perLayout = 80, 2, 2
	}
	return w
}

// newRGG20k is the core/large-run-rgg-20k configuration of cmd/slpbench.
func newRGG20k(seed uint64, small bool, _ int, _ string) instance {
	cfg := core.Default()
	cfg.Slots = 2000
	cfg.SlotPeriod = 10 * time.Millisecond
	cfg.MinimumSetupPeriods = 5
	cfg.NeighbourDiscoveryPeriods = 1
	cfg.DisseminationTimeout = 1
	cfg.SafetyFactor = 1.1
	cfg.FastCollisionResolve = true
	cfg.EventBudget = 200_000_000
	cfg.PathCap = core.PathRecordingOff
	w := &rggRuns{nodes: 20_000, rangeFactor: 2.2, maxHops: 12, layouts: 1, perLayout: 1, seed: seed, cfg: cfg}
	if small {
		w.nodes = 1500
	}
	return w
}

func (w *rggRuns) setUp(tr *tracer, parent spanRef) error {
	side := math.Sqrt(float64(w.nodes)) * topo.DefaultSpacing
	cells := make([]*cell, w.layouts)
	for l := range cells {
		s := tr.begin("topo.build", parent, -1)
		g, err := topo.RandomGeometric(w.nodes, side, side, w.rangeFactor*topo.DefaultSpacing, w.seed<<8|uint64(l))
		if err != nil {
			tr.end(s)
			return err
		}
		sink, source := endpoints(g, topo.Point{X: side / 2, Y: side / 2}, w.maxHops)
		tr.end(s)
		if sink == source {
			return fmt.Errorf("layout %d: no source candidate", l)
		}
		cells[l] = &cell{g: g, sink: sink, source: source, cfg: w.cfg}
		if err := cells[l].wire(tr, parent); err != nil {
			return err
		}
	}
	w.cells = cells
	return nil
}

// endpoints places the sink at the node nearest centre and the source at
// the lowest-numbered node hop-farthest from it, within maxHops when
// maxHops > 0 — the campaign's RGG layout and the scale benchmark's.
func endpoints(g *topo.Graph, centre topo.Point, maxHops int) (sink, source topo.NodeID) {
	for id := topo.NodeID(1); int(id) < g.Len(); id++ {
		if g.Position(id).DistanceTo(centre) < g.Position(sink).DistanceTo(centre) {
			sink = id
		}
	}
	source, best := sink, 0
	for id, d := range g.BFSFrom(sink) {
		if d > best && (maxHops <= 0 || d <= maxHops) {
			source, best = topo.NodeID(id), d
		}
	}
	return sink, source
}

func (w *rggRuns) ops() int     { return w.layouts * w.perLayout }
func (w *rggRuns) warmups() int { return w.layouts }

func (w *rggRuns) run(k int, tr *tracer, parent spanRef) opResult {
	l := w.lifecycles(k)[0]
	s := tr.begin("core.Reset", parent, k)
	err := l.c.net.Reset(l.c.cfg, l.seed)
	tr.end(s)
	if err != nil {
		return opResult{lifecycles: 1, failed: 1, err: err}
	}
	s = tr.begin("core.Run", parent, k)
	res, err := l.c.net.Run()
	tr.end(s)
	if err != nil {
		return opResult{lifecycles: 1, failed: 1, err: fmt.Errorf("seed %d: %w", l.seed, err)}
	}
	r := fromResults([]*core.Result{res})
	r.digest = r.digests[0]
	return r
}

func (w *rggRuns) lifecycles(k int) []lifecycle {
	return []lifecycle{{c: w.cells[k%w.layouts], seed: w.seed + uint64(k)}}
}

func (w *rggRuns) verify(_ int, ref *opResult, replayed []*core.Result) error {
	return verifyDigests(ref, replayed)
}

// finite reports whether every floating-point statistic of r is finite.
func finite(r *core.Result) bool {
	for _, x := range []float64{
		r.CapturePeriods, r.SafetyPeriod, r.PeriodsRun, r.RepairPeriods,
		r.DeliveryBefore, r.DeliveryDuring, r.DeliveryAfter,
		r.EnergyTotalMJ, r.EnergyMaxMJ, r.EnergyMeanMJ, r.FirstDeathPeriod, r.LifetimePeriods,
	} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// resultDigest hashes every simulated statistic of r in a fixed order.
func resultDigest(r *core.Result) [32]byte {
	d := digester{h: sha256.New()}
	d.str(r.Protocol)
	d.u64(r.Seed)
	d.int(r.Nodes)
	d.bool(r.Captured)
	d.int(int(r.CaptureAt))
	d.f64(r.CapturePeriods)
	d.f64(r.SafetyPeriod)
	d.int(r.DeltaSS)
	d.str(r.Strategy)
	d.int(r.Attackers)
	d.int(r.CaptureBy)
	d.int(len(r.AttackerMoves))
	for _, m := range r.AttackerMoves {
		d.int(m)
	}
	d.int(len(r.AttackerPaths))
	for _, path := range r.AttackerPaths {
		d.int(len(path))
		for _, id := range path {
			d.int(int(id))
		}
	}
	if a := r.Assignment; a != nil {
		d.int(a.Len())
		for id := 0; id < a.Len(); id++ {
			d.int(a.Slot(topo.NodeID(id)))
		}
	}
	d.int(r.WeakViolations)
	d.int(r.StrongViolations)
	d.int(r.CollisionViolations)
	d.int(r.RangeViolations)
	d.bool(r.SearchSent)
	d.int(r.ChangedNodes)
	d.u64(r.DecodeErrors)
	types := make([]wire.Type, 0, len(r.Messages))
	for t := range r.Messages {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		d.int(int(t))
		d.u64(r.Messages[t].Count)
		d.u64(r.Messages[t].Bytes)
	}
	st := r.RadioStats
	for _, v := range []uint64{st.Broadcasts, st.BytesSent, st.Deliveries, st.LossDrops, st.CollisionDrops, st.CaptureWins, st.SINRDrops} {
		d.u64(v)
	}
	d.int(r.SourceDeliveries)
	d.int(r.DeliveryCount)
	d.int(r.DeliveryLatencySum)
	d.int(int(r.DataStart))
	d.f64(r.PeriodsRun)
	d.int(r.NodesFailed)
	d.int(r.NodesRecovered)
	d.f64(r.RepairPeriods)
	d.f64(r.DeliveryBefore)
	d.f64(r.DeliveryDuring)
	d.f64(r.DeliveryAfter)
	d.bool(r.PartitionDetected)
	d.f64(r.EnergyTotalMJ)
	d.f64(r.EnergyMaxMJ)
	d.f64(r.EnergyMeanMJ)
	d.int(r.EnergyDeaths)
	d.f64(r.FirstDeathPeriod)
	d.f64(r.LifetimePeriods)
	var sum [32]byte
	d.h.Sum(sum[:0])
	return sum
}

type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string)  { d.int(len(s)); io.WriteString(d.h, s) }
func (d *digester) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
