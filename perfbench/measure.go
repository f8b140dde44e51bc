package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"slpdas/internal/core"
	"slpdas/internal/schedule"
)

// minSetups is the fewest cold set-ups a run times for setup_s.
const minSetups = 9

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	small   bool // reduced sizes, for tests
	workers int
	workdir string
}

// sample is one timed operation.
type sample struct {
	op         int
	dur        time.Duration
	lifecycles int
	mallocs    uint64
	correct    bool
}

// phase is one timed loop over cycles of the workload's operations.
type phase struct {
	samples []sample
	wall    time.Duration
	perOp   []int // timed lifecycles of each operation
}

// opSeconds lists, per operation, the wall time of each correct timed
// repetition.
func (p *phase) opSeconds() [][]float64 {
	out := make([][]float64, len(p.perOp))
	for _, s := range p.samples {
		if s.correct {
			out[s.op] = append(out[s.op], s.dur.Seconds())
		}
	}
	return out
}

func (p *phase) lifecycles() int {
	n := 0
	for _, c := range p.perOp {
		n += c
	}
	return n
}

// harness runs one workload instance and keeps its correctness books.
type harness struct {
	w    workload
	inst instance
	opt  options
	tr   *tracer
	// refs holds each operation's reference output: the warm-up's, or the
	// first timed repetition's.
	refs   []*opResult
	failed int
	errs   []string
	// setups holds the duration of every timed cold set-up.
	setups []float64
}

func (h *harness) note(format string, args ...any) {
	if len(h.errs) < 20 {
		h.errs = append(h.errs, fmt.Sprintf(format, args...))
	}
}

// check books one execution of operation k and returns how many of its
// lifecycles failed.
func (h *harness) check(k int, r opResult) int {
	if r.err != nil {
		h.note("op %d: %v", k, r.err)
	}
	if r.err != nil && r.failed == 0 {
		return r.lifecycles
	}
	ref := h.refs[k]
	switch {
	case r.failed > 0:
		return r.failed
	case ref == nil:
		h.refs[k] = &r
	case r.digest != ref.digest:
		h.note("op %d: digest %x differs from its first run's %x", k, r.digest[:8], ref.digest[:8])
		return r.lifecycles
	}
	return 0
}

// timed runs cycles of operations for about seconds: the first cycle
// whole, and later ones up to the operation that would end more than half
// its own duration past the deadline. Each cycle starts with one timed
// cold set-up, so set-ups sample the host over the whole run like the
// operations do.
func (h *harness) timed(seconds float64, tr *tracer) phase {
	p := phase{perOp: make([]int, h.inst.ops())}
	last := make([]time.Duration, h.inst.ops())
	var ms runtime.MemStats
	start := time.Now()
	for cycle := 0; ; cycle++ {
		h.coldSetUp()
		for k := range p.perOp {
			if cycle > 0 && (time.Since(start)+last[k]/2).Seconds() >= seconds {
				p.wall = time.Since(start)
				return p
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			s := tr.begin("op", spanRef{id: -1}, k)
			r := h.inst.run(k, tr, s)
			last[k] = tr.end(s)
			runtime.ReadMemStats(&ms)
			bad := h.check(k, r)
			h.failed += bad
			p.samples = append(p.samples, sample{op: k, dur: last[k], lifecycles: r.lifecycles, mallocs: ms.Mallocs - before, correct: bad == 0})
			p.perOp[k] += r.lifecycles
		}
	}
}

// replayRecord is one lifecycle replayed through core on one goroutine.
type replayRecord struct {
	res        *core.Result
	reset      time.Duration // Reset before the setup-phase twin
	setupPhase time.Duration // RunSetup on the twin; 0 unless split
	run        time.Duration // Reset + Run of the full lifecycle
	check      time.Duration // the four schedule checks on the result; 0 unless split
}

// replay runs one lifecycle through core. With split set it first runs
// the setup phase alone on a Reset twin of the same seed, and re-runs the
// schedule checks on the result, so the run can be split by phase.
func replay(l lifecycle, split bool, tr *tracer, id int) (replayRecord, error) {
	var rec replayRecord
	root := tr.begin("replay", spanRef{id: -1}, id)
	defer tr.end(root)
	net, cfg := l.c.net, l.c.cfg
	if split {
		s := tr.begin("core.Reset", root, id)
		err := net.Reset(cfg, l.seed)
		rec.reset = tr.end(s)
		if err != nil {
			return rec, err
		}
		s = tr.begin("core.RunSetup", root, id)
		_, err = net.RunSetup()
		rec.setupPhase = tr.end(s)
		if err != nil {
			return rec, err
		}
	}
	start := time.Now()
	s := tr.begin("core.Reset", root, id)
	err := net.Reset(cfg, l.seed)
	tr.end(s)
	if err != nil {
		return rec, err
	}
	s = tr.begin("core.Run", root, id)
	rec.res, err = net.Run()
	tr.end(s)
	rec.run = time.Since(start)
	if err != nil || !split {
		return rec, err
	}
	s = tr.begin("schedule.Check", root, id)
	g, a := l.c.g, rec.res.Assignment
	schedule.CheckWeakDAS(g, a)
	schedule.CheckStrongDAS(g, a)
	schedule.CheckNonColliding(g, a)
	schedule.CheckSlotRange(g, a, cfg.Slots)
	rec.check = tr.end(s)
	return rec, nil
}

// measure runs workload w and reports its metrics: the end-to-end ones
// untraced, the per-layer ones traced.
func measure(w workload, opt options, log io.Writer) *report {
	h := &harness{w: w, opt: opt, inst: w.make(opt.seed, opt.small, opt.workers, opt.workdir)}
	if opt.trace {
		h.tr = &tracer{t0: time.Now()}
	}
	rep := &report{
		Workload:   w.name,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
		Workers:    opt.workers,
		Provenance: hostProvenance(),
	}
	fatal := func(format string, args ...any) *report {
		h.note(format, args...)
		rep.Errors, rep.Attempted, rep.Failed = h.errs, 1, 1
		rep.Metrics = map[string]value{}
		return rep
	}

	// The first set-up builds the networks the operations run on. It is
	// not timed: the first set-ups of a process also pay for growing its
	// heap.
	s := h.tr.begin("setup", spanRef{id: -1}, -1)
	err := h.inst.setUp(h.tr, s)
	h.tr.end(s)
	if err != nil {
		return fatal("set-up: %v", err)
	}

	h.refs = make([]*opResult, h.inst.ops())
	for k := 0; k < h.inst.warmups(); k++ {
		if bad := h.check(k, h.inst.run(k, nil, spanRef{id: -1})); bad > 0 || h.refs[k] == nil {
			return fatal("warm-up op %d failed", k)
		}
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d: set up, warmed up; measuring %gs\n", w.name, opt.seed, opt.seconds)

	runtime.GC()
	var untraced, traced phase
	var profile bytes.Buffer
	if !opt.trace {
		untraced = h.timed(opt.seconds, nil)
	} else {
		untraced = h.timed(opt.seconds/2, nil)
		runtime.GC()
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return fatal("cpu profile: %v", err)
		}
		traced = h.timed(opt.seconds/2, h.tr)
		pprof.StopCPUProfile()
	}

	// Replay one cycle of lifecycles through core: always for executor
	// workloads (their output is checked against it), and split by phase
	// in the traced run.
	var records []replayRecord
	if w.executor || opt.trace {
		id := 0
		for k, ref := range h.refs {
			if ref == nil {
				continue
			}
			var results []*core.Result
			for _, l := range h.inst.lifecycles(k) {
				rec, err := replay(l, opt.trace, h.tr, id)
				id++
				if err != nil {
					h.note("replay of op %d seed %d: %v", k, l.seed, err)
					break
				}
				records = append(records, rec)
				results = append(results, rec.res)
			}
			if err := h.inst.verify(k, ref, results); err != nil {
				h.note("op %d: output differs from core replay: %v", k, err)
				h.failed += untraced.perOp[k] + perOp(traced, k)
			}
		}
	}

	for len(h.setups) < minSetups {
		h.coldSetUp()
	}
	rep.Setups = len(h.setups)
	rep.SetupSeconds = h.setups

	rep.Digest = h.digest()
	if golden, ok := goldenDigests[w.name]; ok && opt.seed == defaultSeed && !opt.small && rep.Digest != golden {
		h.note("digest %s differs from the golden %s", rep.Digest, golden)
		h.failed = untraced.lifecycles() + traced.lifecycles()
	}

	rep.Ops = len(untraced.samples) + len(traced.samples)
	rep.Lifecycles = untraced.lifecycles() + traced.lifecycles()
	rep.OpSeconds = untraced.opSeconds()
	rep.Attempted = max(rep.Lifecycles, 1)
	rep.Failed = min(h.failed, rep.Attempted)
	rep.Correct = rep.Failed == 0 && len(h.errs) == 0
	rep.Errors = h.errs
	if opt.trace {
		rep.Metrics = h.layerMetrics(untraced, traced, records, profile.Bytes())
		rep.spans = h.tr.spans
	} else {
		rep.Metrics = h.endToEnd(untraced)
	}
	return rep
}

// coldSetUp times one set-up of a fresh instance of the workload, the
// same work as the first set-up of a run, and records it in h.setups. The
// instance is collected before operations go on, so they never run beside
// its garbage.
func (h *harness) coldSetUp() {
	inst := h.w.make(h.opt.seed, h.opt.small, h.opt.workers, h.opt.workdir)
	runtime.GC()
	s := h.tr.begin("setup", spanRef{id: -1}, -1)
	err := inst.setUp(h.tr, s)
	h.setups = append(h.setups, h.tr.end(s).Seconds())
	if err != nil {
		h.note("set-up: %v", err)
	}
	runtime.GC()
}

func perOp(p phase, k int) int {
	if p.perOp == nil {
		return 0
	}
	return p.perOp[k]
}

// digest is the workload digest: SHA-256 over every operation's reference
// digest, in cycle order.
func (h *harness) digest() string {
	d := sha256.New()
	for _, ref := range h.refs {
		if ref != nil {
			d.Write(ref.digest[:])
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}

// endToEnd computes the untraced metrics. setup_s is the median cold
// set-up. runs_per_s divides each operation's lifecycles by the median of
// its correct repetitions, and takes the median over the cycle's
// operations, so that neither one slow input nor one fast or slow phase of
// a shared host moves it more than any other. Over six sets of ten runs
// on such a host, it spread 10-30% less across runs than the fastest
// repetition did.
func (h *harness) endToEnd(p phase) map[string]value {
	var allocs []float64
	for _, s := range p.samples {
		if s.lifecycles > 0 {
			allocs = append(allocs, float64(s.mallocs)/float64(s.lifecycles))
		}
	}
	durs := p.opSeconds()
	var rates []float64
	for k, ref := range h.refs {
		if ref != nil && len(durs[k]) > 0 {
			rates = append(rates, float64(ref.lifecycles)/median(durs[k]))
		}
	}
	vals := map[string]float64{
		"setup_s":        median(h.setups),
		"runs_per_s":     median(rates),
		"peak_rss_mb":    peakRSSMiB(),
		"allocs_per_run": median(allocs),
	}
	return withUnits(endToEndMetrics, vals)
}

// withUnits pairs each listed metric with its unit; a metric without a
// value reports 0.
func withUnits(ms []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(ms))
	for _, m := range ms {
		out[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// median of xs (NaN-free); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing sorted data into four
// groups, by the same method as Python's statistics.quantiles(xs, n=4)
// (method "exclusive"). It needs at least two points.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}
