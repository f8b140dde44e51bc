// Command slpbench runs the repository's hot-path benchmark suite outside
// `go test` and records the results as one JSON document, so a benchmark
// baseline can be committed (BENCH_<n>.json), diffed in review, and
// uploaded from CI as an artifact.
//
// The suite covers the layers of the simulation hot path: the
// discrete-event scheduler (internal/des), the radio broadcast→delivery
// fan-out (internal/radio), the full per-run lifecycle and its memoized
// setup path (internal/core NewNetwork vs Reset) and the campaign engine
// above them, including a repeat-heavy 11×11 sweep — the workload the
// arena-style run construction exists for. Timings are machine-dependent;
// allocs/op and bytes/op are stable across machines and are the numbers
// the zero-allocation hot path is held to.
//
// The large-topology tier sizes the scale path: spatial-hash graph
// construction at 10⁵ (RGG) and 10⁶ (grid) nodes, and a full 2·10⁴-node
// lifecycle under the scale-test configuration (free-slot collision
// resolution, walk recording off). These entries carry a per-op unit
// count — nodes for builds, node·periods for the run — and the report
// derives ns/unit and bytes/unit from it, the per-node numbers that stay
// comparable as topology sizes change between baselines.
//
// With -check, the freshly measured results are compared against a
// committed baseline, read before anything is measured or written (an
// -out naming the baseline itself is refused, since the comparison would
// then be against the fresh run): any allocs/op regression in a suite the baseline
// holds at zero allocs fails the run (exit 1); other allocs growth and all
// ns/op movement is reported as warnings only, since wall-clock numbers do
// not transfer between machines.
//
// Usage:
//
//	slpbench [-out BENCH_10.json] [-check BENCH_10.json] [-quiet]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"slpdas/internal/campaign"
	"slpdas/internal/channel"
	"slpdas/internal/core"
	"slpdas/internal/des"
	"slpdas/internal/energy"
	"slpdas/internal/fault"
	"slpdas/internal/protocol"
	"slpdas/internal/radio"
	"slpdas/internal/topo"
)

// Result is one benchmark's outcome in the emitted JSON.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Units is the benchmark's self-reported work-unit count per op
	// (b.ReportMetric(…, "units")): nodes for topology builds,
	// node·periods for large simulated runs. Zero when the benchmark
	// reports none.
	Units float64 `json:"units,omitempty"`
	// NsPerUnit and BytesPerUnit are NsPerOp and BytesPerOp normalised by
	// Units — the size-independent series (ns/node·period, bytes/node)
	// the large-topology tier is tracked by.
	NsPerUnit    float64 `json:"ns_per_unit,omitempty"`
	BytesPerUnit float64 `json:"bytes_per_unit,omitempty"`
}

// Report is the whole document: enough provenance to interpret the
// numbers, then one entry per benchmark.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPU is the host CPU model (from /proc/cpuinfo where available) —
	// the provenance needed to compare ns/op numbers at all.
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("slpbench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_10.json", "output JSON file (empty = stdout)")
	check := fs.String("check", "", "baseline JSON to compare against; allocs/op regressions in zero-alloc suites fail the run")
	quiet := fs.Bool("quiet", false, "suppress per-benchmark progress on stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var base Report
	if *check != "" {
		if *out != "" && sameFile(*out, *check) {
			fmt.Fprintf(os.Stderr, "slpbench: -out %s would overwrite the -check baseline; write the fresh report elsewhere\n", *out)
			return 2
		}
		var err error
		if base, err = readReport(*check); err != nil {
			fmt.Fprintf(os.Stderr, "slpbench: baseline: %v\n", err)
			return 1
		}
	}

	report := Report{
		Schema:    "slpdas-bench/3",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPU:       cpuModel(),
	}
	for _, bench := range benchmarks() {
		r := testing.Benchmark(bench.fn)
		res := Result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if units := r.Extra["units"]; units > 0 {
			res.Units = units
			res.NsPerUnit = res.NsPerOp / units
			res.BytesPerUnit = float64(res.BytesPerOp) / units
		}
		report.Results = append(report.Results, res)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "slpbench: %-28s %14.1f ns/op %8d allocs/op %10d B/op",
				res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
			if res.Units > 0 {
				fmt.Fprintf(os.Stderr, " %10.1f ns/unit %8.1f B/unit", res.NsPerUnit, res.BytesPerUnit)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "slpbench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "slpbench: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "slpbench: wrote %s\n", *out)
		}
	}

	if *check != "" && !compareBaseline(*check, base, report) {
		return 1
	}
	return 0
}

// sameFile reports whether two paths name one file: the same cleaned
// absolute path, or (when both exist) the same inode.
func sameFile(a, b string) bool {
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	if errA == nil && errB == nil && absA == absB {
		return true
	}
	infoA, errA := os.Stat(a)
	infoB, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(infoA, infoB)
}

// readReport loads a report written by an earlier run.
func readReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}

// cpuModel best-effort-identifies the host CPU. Linux exposes the model
// name in /proc/cpuinfo; elsewhere the field is left empty rather than
// guessed.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// compareBaseline reports whether the fresh results hold the committed
// baseline's allocation guarantees. The contract, per the CI gate: a suite
// the baseline records at 0 allocs/op must stay at 0 (hard failure —
// allocs/op is machine-independent, so growth is a real regression);
// non-zero alloc suites warn when allocs grow (campaign-level counts can
// wiggle with worker scheduling); ns/op is always warn-only.
func compareBaseline(path string, base, fresh Report) bool {
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	covered := make(map[string]bool, len(fresh.Results))
	ok := true
	for _, r := range fresh.Results {
		covered[r.Name] = true
		b, found := baseline[r.Name]
		if !found {
			fmt.Fprintf(os.Stderr, "slpbench: NOTE  %s: not in baseline %s\n", r.Name, path)
			continue
		}
		switch {
		case b.AllocsPerOp == 0 && r.AllocsPerOp > 0:
			fmt.Fprintf(os.Stderr, "slpbench: FAIL  %s: %d allocs/op, baseline holds this suite at 0\n",
				r.Name, r.AllocsPerOp)
			ok = false
		case r.AllocsPerOp > b.AllocsPerOp:
			fmt.Fprintf(os.Stderr, "slpbench: WARN  %s: allocs/op %d -> %d\n",
				r.Name, b.AllocsPerOp, r.AllocsPerOp)
		}
		if b.NsPerOp > 0 && r.NsPerOp > 1.2*b.NsPerOp {
			fmt.Fprintf(os.Stderr, "slpbench: WARN  %s: ns/op %.1f -> %.1f (+%.0f%%; machine-dependent, not gating)\n",
				r.Name, b.NsPerOp, r.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1))
		}
	}
	// A baseline entry with no fresh counterpart means a suite was renamed
	// or deleted without updating the committed baseline — the guarantee it
	// carried would otherwise vanish from CI silently.
	for _, b := range base.Results {
		if !covered[b.Name] {
			fmt.Fprintf(os.Stderr, "slpbench: FAIL  %s: in baseline %s but not in the fresh run; update the baseline alongside suite changes\n",
				b.Name, path)
			ok = false
		}
	}
	if ok {
		fmt.Fprintf(os.Stderr, "slpbench: baseline check against %s passed\n", path)
	}
	return ok
}

type benchmark struct {
	name string
	fn   func(b *testing.B)
}

// benchmarks is the suite run builds its report from; tests substitute a
// stub.
var benchmarks = suite

// suite returns the hot-path benchmarks, cheapest layer first.
func suite() []benchmark {
	return []benchmark{
		{"des/schedule-closure", benchScheduleClosure},
		{"des/schedule-runner", benchScheduleRunner},
		{"radio/broadcast", benchBroadcast(false, false)},
		{"radio/broadcast-collisions", benchBroadcast(true, false)},
		{"radio/broadcast-observed", benchBroadcast(false, true)},
		{"radio/sinr-delivery", benchSINRDelivery},
		{"core/setup-new-11", benchSetupNew},
		{"core/setup-reset-11", benchSetupReset},
		{"core/single-run-11", benchSingleRun(11)},
		{"core/single-run-21", benchSingleRun(21)},
		{"core/churn-run", benchChurnRun},
		{"core/energy-run", benchEnergyRun},
		{"protocol/dispatch", benchProtocolDispatch},
		{"campaign/cell-5x5", benchCampaignCell},
		{"campaign/sweep-11x11-x100", benchRepeatHeavySweep},
		{"topo/build-rgg-100k", benchBuildRGG(100_000)},
		{"topo/build-grid-1M", benchBuildGrid(1000)},
		{"core/large-run-rgg-20k", benchLargeRun(20_000)},
	}
}

// benchScheduleClosure measures the steady-state schedule→execute cycle
// with a reused closure body.
func benchScheduleClosure(b *testing.B) {
	s := des.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.ScheduleAfter(time.Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleAfter(0, tick)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

type chainRunner struct {
	s *des.Simulator
	n int
	b *testing.B
}

func (r *chainRunner) Run() {
	r.n++
	if r.n < r.b.N {
		r.s.ScheduleRunnerAfter(time.Millisecond, r)
	}
}

// benchScheduleRunner is the same cycle through the closure-free Runner
// path — the hot path the radio and MAC layers use.
func benchScheduleRunner(b *testing.B) {
	s := des.New()
	r := &chainRunner{s: s, b: b}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleRunnerAfter(0, r)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

type still struct{ pos topo.Point }

func (o still) Location() topo.Point       { return o.pos }
func (o still) Overhear(radio.Observation) {}

// benchBroadcast measures one broadcast at the centre of an 11×11 grid:
// the Broadcast call that collects the four receptions, then the single
// frame event that delivers them in neighbour order and runs the
// eavesdropper scan.
func benchBroadcast(collisions, observed bool) func(b *testing.B) {
	return func(b *testing.B) {
		g, err := topo.DefaultGrid(11)
		if err != nil {
			b.Fatal(err)
		}
		sim := des.New()
		m := radio.New(sim, g, 1)
		m.Reset(1, nil, collisions, nil)
		for n := topo.NodeID(0); int(n) < g.Len(); n++ {
			m.SetReceiver(n, func(uint64, topo.NodeID, []byte) {})
		}
		centre := topo.GridCentre(11)
		if observed {
			m.AddObserver(still{pos: g.Position(centre)})
		}
		payload := make([]byte, 32)
		fire := func() { m.Broadcast(centre, payload) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.ScheduleAfter(0, fire)
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSINRDelivery measures the broadcast→delivery fan-out under the
// shadowed log-distance channel with SINR capture: two overlapping
// transmissions per op, so every delivery runs the contention fold and the
// capture verdict. The baseline holds this at 0 allocs/op — the SINR
// accumulator must keep the pooled-frame discipline (the per-link
// shadowing cache is warmed before timing; steady state it is read-only).
func benchSINRDelivery(b *testing.B) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := channel.Parse("logdist:2.4:4@sinr:3")
	if err != nil {
		b.Fatal(err)
	}
	sim := des.New()
	m := radio.New(sim, g, 1)
	m.Reset(1, ch, false, nil)
	for n := topo.NodeID(0); int(n) < g.Len(); n++ {
		m.SetReceiver(n, func(uint64, topo.NodeID, []byte) {})
	}
	centre := topo.GridCentre(11)
	rival := g.Neighbors(centre)[0]
	payload := make([]byte, 32)
	fire := func() {
		m.Broadcast(centre, payload)
		m.Broadcast(rival, payload)
	}
	// Warm the pools and the per-link shadowing cache.
	sim.ScheduleAfter(0, fire)
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ScheduleAfter(0, fire)
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSetupNew measures cold run construction: one full NewNetwork wiring
// per op — what every campaign repeat paid before the arena split.
func benchSetupNew(b *testing.B) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	sink, source := topo.GridCentre(11), topo.GridTopLeft()
	cfg := core.DefaultSLP(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewNetwork(g, sink, source, cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSetupReset measures warm run construction: rewinding one wired
// network with Reset — what a campaign repeat pays on the arena path.
func benchSetupReset(b *testing.B) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	sink, source := topo.GridCentre(11), topo.GridTopLeft()
	cfg := core.DefaultSLP(3)
	net, err := core.NewNetwork(g, sink, source, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Reset(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSingleRun measures one complete simulated lifecycle (setup + data
// phase + attacker) — the unit of work behind every campaign repeat.
func benchSingleRun(side int) func(b *testing.B) {
	return func(b *testing.B) {
		g, err := topo.DefaultGrid(side)
		if err != nil {
			b.Fatal(err)
		}
		sink, source := topo.GridCentre(side), topo.GridTopLeft()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net, err := core.NewNetwork(g, sink, source, core.DefaultSLP(3), uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchChurnRun measures one complete lifecycle with the fault-injection
// subsystem live: churn crashes nodes mid-data-phase and rejoins them
// after the MTTR, exercising plan minting, crash/recover event handling,
// re-discovery and slot re-acquisition on top of the single-run cost.
func benchChurnRun(b *testing.B) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	sink, source := topo.GridCentre(11), topo.GridTopLeft()
	cfg := core.DefaultSLP(3)
	cfg.Faults = fault.Spec{Kind: fault.Churn, Rate: 0.15, MTTR: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := core.NewNetwork(g, sink, source, cfg, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnergyRun measures one complete lifecycle with the physical layer
// fully live: shadowed SINR channel, per-node battery accounting, idle
// charging each TDMA period and depletion deaths rewiring the network —
// the marginal cost of energy realism over core/single-run-11.
func benchEnergyRun(b *testing.B) {
	g, err := topo.DefaultGrid(11)
	if err != nil {
		b.Fatal(err)
	}
	sink, source := topo.GridCentre(11), topo.GridTopLeft()
	cfg := core.DefaultSLP(3)
	cfg.Channel = "logdist:2.4:4@sinr:3"
	es, err := energy.Parse("battery:25")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Energy = es
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := core.NewNetwork(g, sink, source, cfg, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProtocolDispatch measures the protocol-registry indirection the
// run hot path pays per Reset: name resolution through ByName (alias
// included) plus the static shape queries the network consults. The
// baseline holds this at 0 allocs/op — the registry must stay a map
// lookup away from the hardwired bool it replaced.
func benchProtocolDispatch(b *testing.B) {
	names := [...]string{
		protocol.NameProtectionless,
		protocol.NameSLPDAS,
		protocol.AliasSLP,
		protocol.NamePhantom,
		protocol.NameFakeSource,
		protocol.NameTier,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		fam, err := protocol.ByName(names[i%len(names)])
		if err != nil {
			b.Fatal(err)
		}
		sink += len(fam.Name()) + len(fam.Label())
		if fam.SearchPhase() {
			sink++
		}
		if fam.TDMAData() {
			sink++
		}
		if fam.UsesSearchDistance() {
			sink++
		}
	}
	if sink == 0 {
		b.Fatal("dispatch loop optimised away")
	}
}

// benchCampaignCell measures a small campaign end to end through the
// worker pool, sinks included.
func benchCampaignCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := &campaign.Memory{}
		if _, err := campaign.Run(campaign.Spec{
			GridSizes:       []int{5},
			SearchDistances: []int{2},
			Repeats:         2,
			BaseSeed:        uint64(i),
			Workers:         2,
		}, mem); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBuildRGG measures spatial-hash topology construction on a random
// geometric graph: placement, bucket-grid neighbour discovery, CSR
// assembly and the union-find connectivity check, at the density the
// scale tests use. Units are nodes, so the report's derived columns are
// build ns/node and resident bytes/node.
func benchBuildRGG(n int) func(b *testing.B) {
	return func(b *testing.B) {
		side := math.Sqrt(float64(n)) * topo.DefaultSpacing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := topo.RandomGeometric(n, side, side, 2.2*topo.DefaultSpacing, 61+uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			if g.Len() != n {
				b.Fatalf("built %d nodes, want %d", g.Len(), n)
			}
		}
		b.ReportMetric(float64(n), "units")
	}
}

// benchBuildGrid measures spatial-hash construction on a square grid —
// side 1000 is the million-node topology the scale path is sized for.
// Units are nodes.
func benchBuildGrid(side int) func(b *testing.B) {
	return func(b *testing.B) {
		n := side * side
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := topo.DefaultGrid(side)
			if err != nil {
				b.Fatal(err)
			}
			if g.Len() != n {
				b.Fatalf("built %d nodes, want %d", g.Len(), n)
			}
		}
		b.ReportMetric(float64(n), "units")
	}
}

// benchLargeRun measures one full lifecycle on a large random geometric
// graph under the scale-test configuration: free-slot collision
// resolution, one HELLO round, walk recording off, source pinned a fixed
// hop count from the sink so the safety period — and with it the simulated
// work — is topology-size-independent. Units are node·periods, making the
// derived ns/unit the scale path's headline number: nanoseconds to carry
// one node through one TDMA period.
func benchLargeRun(n int) func(b *testing.B) {
	return func(b *testing.B) {
		side := math.Sqrt(float64(n)) * topo.DefaultSpacing
		g, err := topo.RandomGeometric(n, side, side, 2.2*topo.DefaultSpacing, 61)
		if err != nil {
			b.Fatal(err)
		}
		sink := topo.NodeID(0)
		centre := topo.Point{X: side / 2, Y: side / 2}
		for id := topo.NodeID(1); int(id) < g.Len(); id++ {
			if g.Position(id).DistanceTo(centre) < g.Position(sink).DistanceTo(centre) {
				sink = id
			}
		}
		dists := g.BFSFrom(sink)
		source, sourceDist := sink, 0
		for id, d := range dists {
			if d <= 12 && d > sourceDist {
				source, sourceDist = topo.NodeID(id), d
			}
		}
		if sourceDist == 0 {
			b.Fatal("no source candidate within 12 hops of the sink")
		}

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

		nodePeriods := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net, err := core.NewNetwork(g, sink, source, cfg, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			res, err := net.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.PeriodsRun <= 0 {
				b.Fatal("no data periods simulated")
			}
			nodePeriods += float64(n) * res.PeriodsRun
		}
		b.ReportMetric(nodePeriods/float64(b.N), "units")
	}
}

// benchRepeatHeavySweep is the acceptance workload of the arena layer: the
// paper's 11×11 grid at 100 repeats per cell with default axes (both
// protocols), through the shared pool with per-worker network reuse. This
// is wall-clock dominated, so expect a single iteration.
func benchRepeatHeavySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := &campaign.Memory{}
		if _, err := campaign.Run(campaign.Spec{
			GridSizes: []int{11},
			Repeats:   100,
			BaseSeed:  1,
			Workers:   4,
		}, mem); err != nil {
			b.Fatal(err)
		}
	}
}
