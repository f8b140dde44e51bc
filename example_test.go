// Package-level examples: each one drives the engine packages the way a
// user of the simulator would, and its Output block pins every line it
// prints, so `go test .` fails when a quoted number drifts. Run one with
// `go test -run '^Example_quickstart$' -v .`.

package slpdas_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/metrics"
	"slpdas/internal/protocol"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
)

// printTable prints tbl with the blanks that pad its last column trimmed
// from each line: an Output block cannot hold trailing blanks.
func printTable(tbl *metrics.Table) {
	for _, line := range strings.Split(strings.TrimSuffix(tbl.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Example_quickstart simulates both DAS protocols on the paper's 11×11
// grid and compares capture ratios: the headline experiment in a dozen
// lines.
func Example_quickstart() {
	const repeats = 50

	protectionless, err := experiment.Run(experiment.Spec{GridSize: 11, Config: core.Default(), Repeats: repeats, BaseSeed: 1})
	if err != nil {
		log.Fatalf("protectionless runs: %v", err)
	}
	slp, err := experiment.Run(experiment.Spec{GridSize: 11, Config: core.DefaultSLP(3), Repeats: repeats, BaseSeed: 1})
	if err != nil {
		log.Fatalf("slp runs: %v", err)
	}

	prot, aware := protectionless.CaptureRatio, slp.CaptureRatio
	fmt.Println("Source location privacy on an 11×11 sensor grid")
	fmt.Printf("  protectionless DAS : captured %2d/%d runs (%.0f%%)\n",
		prot.Successes, prot.Trials, prot.Value()*100)
	fmt.Printf("  SLP-aware DAS      : captured %2d/%d runs (%.0f%%), %.1f slots re-assigned per run\n",
		aware.Successes, aware.Trials, aware.Value()*100, slp.ChangedNodes.Mean)
	if prot.Value() > 0 {
		fmt.Printf("  capture ratio reduced by %.0f%%\n", (1-aware.Value()/prot.Value())*100)
	}
	// Output:
	// Source location privacy on an 11×11 sensor grid
	//   protectionless DAS : captured 10/50 runs (20%)
	//   SLP-aware DAS      : captured  7/50 runs (14%), 6.8 slots re-assigned per run
	//   capture ratio reduced by 30%
}

// Example_campaign runs the Figure 5 sweep (capture ratio vs network size
// for both protocols) as one declarative campaign.Spec instead of nested
// loops. Rows stream to a buffered JSONL sink as cells finish (durable
// once the sink is closed); the paper's table is rendered at the end from
// the same rows, which the campaign Summary also returns.
func Example_campaign() {
	const repeats = 20

	dir, err := os.MkdirTemp("", "slpdas-campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	out, err := os.Create(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()

	jsonl := campaign.NewJSONL(out)
	sum, err := campaign.Run(campaign.Spec{
		GridSizes:       []int{11, 15, 21}, // Figure 5's x-axis
		SearchDistances: []int{3},          // Figure 5(a)
		Repeats:         repeats,
		BaseSeed:        1,
		// Flush the sink every other cell: if this process dies,
		// everything up to the last checkpoint is already durable in
		// results.jsonl, and re-running with the completed cells skipped
		// (Spec.ScanResumable + Spec.Skip, or slpsim campaign -resume) appends
		// only what is missing.
		CheckpointEvery: 2,
		Progress: func(done, total int, row campaign.Row) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s done\n", done, total, row.Topology, row.Protocol)
		},
	}, jsonl)
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	// Sinks buffer: rows reach results.jsonl on Close.
	if err := jsonl.Close(); err != nil {
		log.Fatalf("close sink: %v", err)
	}

	fmt.Printf("Figure 5(a) as one campaign: %d cells, %d runs, wrote results.jsonl\n\n",
		sum.Cells, sum.Cells*repeats)
	fmt.Println("size  protectionless  slp-das  reduction")
	rowsBySize := map[int]map[string]campaign.Row{}
	for _, r := range sum.Rows {
		if rowsBySize[r.GridSize] == nil {
			rowsBySize[r.GridSize] = map[string]campaign.Row{}
		}
		rowsBySize[r.GridSize][r.Protocol] = r
	}
	for _, size := range []int{11, 15, 21} {
		prot, slp := rowsBySize[size][protocol.NameProtectionless], rowsBySize[size][protocol.AliasSLP]
		reduction := "n/a"
		if prot.CaptureRatio > 0 {
			reduction = fmt.Sprintf("%.0f%%", (1-slp.CaptureRatio/prot.CaptureRatio)*100)
		}
		fmt.Printf("%4d  %13.1f%%  %6.1f%%  %9s\n",
			size, prot.CaptureRatio*100, slp.CaptureRatio*100, reduction)
	}
	// Output:
	// Figure 5(a) as one campaign: 6 cells, 120 runs, wrote results.jsonl
	//
	// size  protectionless  slp-das  reduction
	//   11           20.0%    20.0%         0%
	//   15           40.0%    20.0%        50%
	//   21           10.0%    10.0%         0%
}

// Example_verify uses the paper's Algorithm 1 as a library. It
// hand-crafts two schedules on a 3×3 grid: a gradient that leads the
// eavesdropper straight to the source (the decision procedure returns a
// counterexample trace) and a refined schedule with a decoy local minimum
// that is still a weak DAS (verified δ-SLP-aware), demonstrating
// Definitions 3, 5 and 6.
func Example_verify() {
	// 3×3 grid, node IDs row-major: sink 4 (centre), source 0 (corner).
	g, err := topo.DefaultGrid(3)
	if err != nil {
		log.Fatalf("grid topology: %v", err)
	}
	const (
		source = topo.NodeID(0)
		sink   = topo.NodeID(4)
		delta  = 10 // safety period in TDMA periods
	)
	atk := attacker.Params{R: 1, H: 0, M: 1, Start: sink}

	// Schedule F: a slot gradient pulling the eavesdropper 4→1→0. It is a
	// valid weak DAS — and a homing beacon.
	f := schedule.New(g.Len(), sink)
	for n, s := range map[topo.NodeID]int{0: 10, 1: 20, 2: 30, 3: 21, 5: 40, 6: 31, 7: 41, 8: 39} {
		f.Set(n, s)
	}
	f.Set(sink, 100) // the sink's Δ slot: it never transmits

	showSchedule("schedule F (gradient)", f)
	fmt.Println("  weak DAS:", len(schedule.CheckWeakDAS(g, f)) == 0)
	res, err := verify.VerifySchedule(g, f, atk, verify.FirstHeardD, delta, source, verify.Options{})
	if err != nil {
		log.Fatalf("verify F: %v", err)
	}
	fmt.Printf("  VerifySchedule → SLP-aware=%v", res.SLPAware)
	if !res.SLPAware {
		fmt.Printf(", counterexample %v captures in %d periods", res.Counterexample, res.CapturePeriod)
	}
	fmt.Println()

	// Schedule Fs: slots 5 and 8 re-assigned into a decoy chain; the
	// first-heard attacker walks 4→5→8 and is absorbed at the corner
	// opposite the source. Every node still has a later-slot route to the
	// sink, so Fs remains a weak DAS: routing and luring use different
	// neighbours — the heart of the paper's Phase 3.
	fs := schedule.New(g.Len(), sink)
	for n, s := range map[topo.NodeID]int{0: 10, 1: 20, 2: 14, 3: 21, 5: 15, 6: 31, 7: 41, 8: 12} {
		fs.Set(n, s)
	}
	fs.Set(sink, 100)

	fmt.Println()
	showSchedule("schedule Fs (decoy)", fs)
	fmt.Println("  weak DAS:", len(schedule.CheckWeakDAS(g, fs)) == 0)
	res, err = verify.VerifySchedule(g, fs, atk, verify.FirstHeardD, delta, source, verify.Options{})
	if err != nil {
		log.Fatalf("verify Fs: %v", err)
	}
	fmt.Printf("  VerifySchedule → SLP-aware=%v (states explored: %d)\n", res.SLPAware, res.StatesExplored)

	// Definition 5: Fs is an SLP-aware DAS relative to F.
	aware, err := verify.IsSLPAwareDAS(g, fs, f, atk, verify.FirstHeardD, source, 100, verify.Options{})
	if err != nil {
		log.Fatalf("IsSLPAwareDAS: %v", err)
	}
	fmt.Printf("\nDefinition 5: Fs is an SLP-aware DAS w.r.t. F: %v\n", aware)

	// A stronger attacker (R=3, M=2) may climb out of the decoy basin.
	strong := attacker.Params{R: 3, H: 0, M: 2, Start: sink}
	res, err = verify.VerifySchedule(g, fs, strong, verify.AnyHeardD, delta, source, verify.Options{})
	if err != nil {
		log.Fatalf("verify Fs vs strong attacker: %v", err)
	}
	fmt.Printf("against a (3,0,2) attacker: SLP-aware=%v", res.SLPAware)
	if !res.SLPAware {
		fmt.Printf(" — trace %v in %d periods", res.Counterexample, res.CapturePeriod)
	}
	fmt.Println()
	// Output:
	// schedule F (gradient):
	//  10  20  30
	//  21 100  40
	//  31  41  39
	//   weak DAS: true
	//   VerifySchedule → SLP-aware=false, counterexample [4 1 0] captures in 2 periods
	//
	// schedule Fs (decoy):
	//  10  20  14
	//  21 100  15
	//  31  41  12
	//   weak DAS: true
	//   VerifySchedule → SLP-aware=true (states explored: 3)
	//
	// Definition 5: Fs is an SLP-aware DAS w.r.t. F: true
	// against a (3,0,2) attacker: SLP-aware=false — trace [4 3 0] in 2 periods
}

// showSchedule renders a 3×3 schedule as its slot map.
func showSchedule(name string, a *schedule.Assignment) {
	fmt.Printf("%s:\n", name)
	fmt.Print(topo.RenderGrid(3, func(n topo.NodeID) string {
		return strconv.Itoa(a.Slot(n))
	}))
}

// Example_wildlife is the paper's motivating scenario. A sensor grid
// watches a reserve; the node nearest a rhinoceros becomes the source and
// reports sightings towards the central base station. A poacher with a
// radio direction-finder starts at the base station and follows the first
// transmission it hears each TDMA period.
//
// The example runs the same hunt twice — over the protectionless schedule
// and over the SLP-aware schedule — and renders both walks, showing the
// poacher being led into the decoy region and the safety period expiring.
func Example_wildlife() {
	const (
		side = 11
		seed = 6 // a run where the protectionless poacher finds the rhino
	)
	g, err := topo.DefaultGrid(side)
	if err != nil {
		log.Fatalf("building the reserve grid: %v", err)
	}
	base := topo.GridCentre(side) // base station (sink)
	rhino := topo.GridTopLeft()   // the animal's position (source)

	fmt.Printf("reserve: %d sensors, base station at node %d, rhino near node %d (Δss=%d hops)\n\n",
		g.Len(), base, rhino, g.HopDistance(base, rhino))

	hunt(g, side, base, rhino, core.Default(), seed, "protectionless DAS")
	fmt.Println()
	hunt(g, side, base, rhino, core.DefaultSLP(3), seed, "SLP-aware DAS")
	// Output:
	// reserve: 121 sensors, base station at node 60, rhino near node 0 (Δss=10 hops)
	//
	// === protectionless DAS ===
	// the poacher reached the rhino after 10 periods (safety period 16.5) — POACHED
	// poacher's walk (numbers are period indices; B base, R rhino, ! decoy):
	// 10  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  9  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  8  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  7  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  6  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  5  4  3  2  1  B  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//
	// === SLP-aware DAS ===
	// the safety period (16.5 periods) expired before the poacher arrived — rhino SAFE
	// decoy: 6 sensors re-assigned their TDMA slots
	// poacher's walk (numbers are period indices; B base, R rhino, ! decoy):
	//  R  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  ·  4  3  2  1  B  ·  ·  ·  ·  ·
	//  ·  5  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  !  6  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  8  7  ·  ·  ·  ·  ·  ·  ·  ·  ·
	//  9  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
	// 10  ·  ·  ·  ·  ·  ·  ·  ·  ·  ·
}

// hunt runs one poacher hunt on the side×side reserve and renders its walk.
func hunt(g *topo.Graph, side int, base, rhino topo.NodeID, cfg core.Config, seed uint64, name string) {
	net, err := core.NewNetwork(g, base, rhino, cfg, seed)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	res, err := net.Run()
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}

	fmt.Printf("=== %s ===\n", name)
	if res.Captured {
		fmt.Printf("the poacher reached the rhino after %.0f periods (safety period %.1f) — POACHED\n",
			res.CapturePeriods, res.SafetyPeriod)
	} else {
		fmt.Printf("the safety period (%.1f periods) expired before the poacher arrived — rhino SAFE\n",
			res.SafetyPeriod)
	}
	if res.ChangedNodes > 0 {
		fmt.Printf("decoy: %d sensors re-assigned their TDMA slots\n", res.ChangedNodes)
	}

	step := map[topo.NodeID]int{}
	for i, n := range res.AttackerPath {
		step[n] = i
	}
	fmt.Println("poacher's walk (numbers are period indices; B base, R rhino, ! decoy):")
	fmt.Print(topo.RenderGrid(side, func(n topo.NodeID) string {
		if i, ok := step[n]; ok && n != base {
			return strconv.Itoa(i)
		}
		switch {
		case n == base:
			return "B"
		case n == rhino:
			return "R"
		case net.Changed(n):
			return "!"
		}
		return "·"
	}))
}

// Example_attackerSweep measures the generality of the (R, H, M, s0, D)
// model. The paper evaluates the (1,0,1)-attacker; this example measures
// how capture ratio responds to attacker strength, both in full
// simulation (live attacker, many seeds) and with the exhaustive decision
// procedure over a fixed schedule (worst-case nondeterministic attacker).
func Example_attackerSweep() {
	const (
		size    = 9
		repeats = 30
	)

	fmt.Printf("simulated capture ratio on a %d×%d grid, SLP DAS, %d seeds per row\n\n", size, size, repeats)
	tbl := metrics.NewTable("attacker (R,H,M)", "capture ratio")
	for _, p := range []attacker.Params{{R: 1, H: 0, M: 1}, {R: 1, H: 1, M: 1}, {R: 2, H: 0, M: 1}, {R: 1, H: 0, M: 2}, {R: 2, H: 1, M: 2}} {
		cfg := core.DefaultSLP(3)
		cfg.Attacker = p
		agg, err := experiment.Run(experiment.Spec{GridSize: size, Config: cfg, Repeats: repeats, BaseSeed: 100})
		if err != nil {
			log.Fatalf("attacker %v: %v", p, err)
		}
		c := agg.CaptureRatio
		tbl.AddRow(
			fmt.Sprintf("(%d,%d,%d)", p.R, p.H, p.M),
			fmt.Sprintf("%.1f%% (%d/%d)", c.Value()*100, c.Successes, c.Trials),
		)
	}
	printTable(tbl)

	// Worst case: the exhaustive nondeterministic attacker of Algorithm 1
	// over one settled SLP schedule.
	g, err := topo.DefaultGrid(size)
	if err != nil {
		log.Fatal(err)
	}
	sink, source := topo.GridCentre(size), topo.GridTopLeft()
	net, err := core.NewNetwork(g, sink, source, core.DefaultSLP(3), 100)
	if err != nil {
		log.Fatal(err)
	}
	assignment, err := net.RunSetup()
	if err != nil {
		log.Fatal(err)
	}
	delta := int(net.SafetyPeriods())

	fmt.Printf("\nexhaustive verification of one SLP schedule (δ=%d periods):\n\n", delta)
	vt := metrics.NewTable("attacker (R,H,M)", "verdict", "states explored")
	for _, p := range []attacker.Params{
		{R: 1, H: 0, M: 1, Start: sink},
		{R: 2, H: 0, M: 1, Start: sink},
		{R: 2, H: 0, M: 2, Start: sink},
		{R: 3, H: 0, M: 2, Start: sink},
		{R: 4, H: 0, M: 3, Start: sink},
	} {
		res, err := verify.VerifySchedule(g, assignment, p, verify.AnyHeardD, delta, source, verify.Options{})
		if err != nil {
			log.Fatalf("verify %+v: %v", p, err)
		}
		verdict := "δ-SLP-aware"
		if !res.SLPAware {
			verdict = fmt.Sprintf("captured in %d periods", res.CapturePeriod)
		}
		vt.AddRow(
			fmt.Sprintf("(%d,%d,%d)", p.R, p.H, p.M),
			verdict,
			fmt.Sprintf("%d", res.StatesExplored),
		)
	}
	printTable(vt)
	// Output:
	// simulated capture ratio on a 9×9 grid, SLP DAS, 30 seeds per row
	//
	// attacker (R,H,M)  capture ratio
	// ----------------  -------------
	// (1,0,1)           3.3% (1/30)
	// (1,1,1)           3.3% (1/30)
	// (2,0,1)           3.3% (1/30)
	// (1,0,2)           0.0% (0/30)
	// (2,1,2)           6.7% (2/30)
	//
	// exhaustive verification of one SLP schedule (δ=13 periods):
	//
	// attacker (R,H,M)  verdict                states explored
	// ----------------  ---------------------  ---------------
	// (1,0,1)           δ-SLP-aware            9
	// (2,0,1)           captured in 8 periods  55
	// (2,0,2)           captured in 8 periods  55
	// (3,0,2)           captured in 8 periods  213
	// (4,0,3)           captured in 6 periods  364
}

// Example_attackerPanel runs the attacker-strength study as one campaign
// spec. Where Example_attackerSweep hand-loops over (R, H, M) tuples,
// this example leans on the campaign engine's Cartesian expansion: every
// named decision strategy × eavesdropper team size × both protocols,
// executed through one shared worker pool with the deterministic
// BaseSeed + cell·Repeats seed layout. The result is the panel the SLP
// literature reports — how much protection the scheme buys against a
// whole family of adversaries, not just the paper's (1,0,1) first-heard
// eavesdropper — reproducible byte-for-byte from this single spec.
func Example_attackerPanel() {
	const (
		size    = 9
		repeats = 20
	)

	strategies := attacker.StrategyNames()
	sum, err := campaign.Run(campaign.Spec{
		GridSizes:  []int{size},
		Protocols:  []string{protocol.NameProtectionless, protocol.AliasSLP},
		Strategies: strategies,
		// Teams of 1 and 3: capture is the first eavesdropper to reach
		// the source, so bigger teams bound the scheme's protection from
		// above. R=2 lets patient corroborate; H=2 gives the
		// history-driven strategies something to use.
		AttackerCounts:  []int{1, 3},
		SharedHistories: []bool{true},
		Attackers:       []attacker.Params{{R: 2, H: 2, M: 1}},
		Repeats:         repeats,
		BaseSeed:        100,
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	fmt.Printf("attacker panel on a %d×%d grid: %d cells, %d seeds each (shared-history teams)\n\n",
		size, size, sum.Cells, repeats)

	// Pivot the row stream into one line per strategy: capture ratio for
	// each (protocol, team size) column.
	type key struct {
		strategy string
		protocol string
		count    int
	}
	ratio := make(map[key]string, len(sum.Rows))
	for _, r := range sum.Rows {
		ratio[key{r.Strategy, r.Protocol, r.Attackers}] =
			fmt.Sprintf("%.0f%% (%d/%d)", r.CaptureRatio*100, r.Captures, r.Runs)
	}
	tbl := metrics.NewTable("strategy", "prot x1", "prot x3", "slp x1", "slp x3")
	for _, s := range strategies {
		tbl.AddRow(
			s,
			ratio[key{s, protocol.NameProtectionless, 1}],
			ratio[key{s, protocol.NameProtectionless, 3}],
			ratio[key{s, protocol.AliasSLP, 1}],
			ratio[key{s, protocol.AliasSLP, 3}],
		)
	}
	printTable(tbl)
	fmt.Println("\ncapture = first of the team to reach the source within the safety period.")
	fmt.Println("note: patient needs an origin heard twice within one period's R-buffer;")
	fmt.Println("TDMA gives every node one slot per period, so it (honestly) stalls here.")
	fmt.Println("re-run me: every number above is a pure function of the spec (seed 100).")
	// Output:
	// attacker panel on a 9×9 grid: 28 cells, 20 seeds each (shared-history teams)
	//
	// strategy         prot x1     prot x3     slp x1      slp x3
	// ---------------  ----------  ----------  ----------  ----------
	// backtrack        10% (2/20)  20% (4/20)  15% (3/20)  15% (3/20)
	// cautious         25% (5/20)  45% (9/20)  30% (6/20)  25% (5/20)
	// first-heard      25% (5/20)  20% (4/20)  10% (2/20)  10% (2/20)
	// patient          0% (0/20)   0% (0/20)   0% (0/20)   0% (0/20)
	// random-heard     35% (7/20)  45% (9/20)  25% (5/20)  30% (6/20)
	// random-walk      0% (0/20)   5% (1/20)   0% (0/20)   0% (0/20)
	// unvisited-first  30% (6/20)  10% (2/20)  0% (0/20)   10% (2/20)
	//
	// capture = first of the team to reach the source within the safety period.
	// note: patient needs an origin heard twice within one period's R-buffer;
	// TDMA gives every node one slot per period, so it (honestly) stalls here.
	// re-run me: every number above is a pure function of the spec (seed 100).
}

// Example_churnPanel shows graceful degradation under node churn, as one
// campaign spec. The fault-injection axis sweeps crash-with-recovery
// rates over both of the paper's protocols, and the degradation columns
// show the trade: capture ratio (privacy), delivery ratio through the
// churn window (utility), and schedule self-healing time (how many TDMA
// periods the network needs to re-acquire slots after a rejoin). The
// whole panel is a pure function of the spec (seed 2017).
func Example_churnPanel() {
	const (
		size    = 9
		repeats = 20
	)

	// The fault axis: from fault-free to one node in four cycling, all with
	// a mean-time-to-recovery of 2 TDMA periods.
	faults := []string{"none", "churn:0.05:2", "churn:0.15:2", "churn:0.25:2"}
	sum, err := campaign.Run(campaign.Spec{
		GridSizes:       []int{size},
		Protocols:       []string{protocol.NameProtectionless, protocol.AliasSLP},
		SearchDistances: []int{3},
		Faults:          faults,
		Repeats:         repeats,
		BaseSeed:        2017,
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	fmt.Printf("churn panel on a %d×%d grid: %d cells, %d seeds each, SD 3, MTTR 2 periods\n\n",
		size, size, sum.Cells, repeats)

	type key struct{ protocol, faults string }
	byCell := make(map[key]campaign.Row, len(sum.Rows))
	for _, r := range sum.Rows {
		byCell[key{r.Protocol, r.Faults}] = r
	}
	tbl := metrics.NewTable("protocol", "faults", "capture", "failed/run",
		"delivery during", "delivery after", "repair (periods)")
	for _, p := range []string{protocol.NameProtectionless, protocol.AliasSLP} {
		for _, f := range faults {
			r := byCell[key{p, f}]
			during, after, repair := "-", "-", "-"
			if f != "none" {
				during = fmt.Sprintf("%.0f%%", r.DeliveryDuring*100)
				after = fmt.Sprintf("%.0f%%", r.DeliveryAfter*100)
				repair = fmt.Sprintf("%.1f", r.RepairPeriods)
			}
			tbl.AddRow(
				p, f,
				fmt.Sprintf("%.0f%% (%d/%d)", r.CaptureRatio*100, r.Captures, r.Runs),
				fmt.Sprintf("%.1f", r.NodesFailed),
				during, after, repair,
			)
		}
	}
	printTable(tbl)
	fmt.Println("\ndelivery during/after = unique source messages reaching the sink per")
	fmt.Println("data period inside and after the fault window; repair = periods from")
	fmt.Println("the first crash to the last slot re-acquisition. Rejoining nodes run")
	fmt.Println("neighbour discovery again and pull slots from their neighbours, so the")
	fmt.Println("schedule self-heals without a global restart. Churn events are spread")
	fmt.Println("across the whole data phase, so the 'after' window is only the few")
	fmt.Println("periods past the last rejoin — small, and empty for runs that end")
	fmt.Println("early on capture — which is why it reads low next to 'during'.")
	// Output:
	// churn panel on a 9×9 grid: 8 cells, 20 seeds each, SD 3, MTTR 2 periods
	//
	// protocol        faults        capture     failed/run  delivery during  delivery after  repair (periods)
	// --------------  ------------  ----------  ----------  ---------------  --------------  ----------------
	// protectionless  none          40% (8/20)  0.0         -                -               -
	// protectionless  churn:0.05:2  25% (5/20)  3.6         95%              25%             7.2
	// protectionless  churn:0.15:2  15% (3/20)  10.6        100%             10%             10.8
	// protectionless  churn:0.25:2  30% (6/20)  15.8        99%              5%              11.6
	// slp             none          10% (2/20)  0.0         -                -               -
	// slp             churn:0.05:2  15% (3/20)  3.7         100%             30%             7.3
	// slp             churn:0.15:2  15% (3/20)  11.6        100%             20%             11.0
	// slp             churn:0.25:2  10% (2/20)  18.1        99%              0%              12.2
	//
	// delivery during/after = unique source messages reaching the sink per
	// data period inside and after the fault window; repair = periods from
	// the first crash to the last slot re-acquisition. Rejoining nodes run
	// neighbour discovery again and pull slots from their neighbours, so the
	// schedule self-heals without a global restart. Churn events are spread
	// across the whole data phase, so the 'after' window is only the few
	// periods past the last rejoin — small, and empty for runs that end
	// early on capture — which is why it reads low next to 'during'.
}

// Example_energyPanel shows the privacy/lifetime trade under a realistic
// physical layer, as one campaign spec. The channel axis swaps the ideal
// disc for a log-distance path-loss channel with per-link shadowing and
// SINR capture; the energy axis puts every relay on a battery. The
// columns show what the physics costs: capture ratio (privacy),
// deliveries (utility), energy spent, and how many nodes the battery
// kills — the SLP-aware schedule pays for its privacy in joules as well
// as latency. The whole panel is a pure function of the spec (seed 2017).
func Example_energyPanel() {
	const (
		size    = 9
		repeats = 20
	)

	// The channel axis: ideal disc, then log-distance path loss (exponent
	// 2.4) with 4 dB log-normal shadowing per link, without and with SINR
	// capture at a 3 dB threshold.
	channels := []string{"ideal", "logdist:2.4:4", "logdist:2.4:4@sinr:3"}
	// The energy axis: mains-powered, then batteries small enough that
	// relay duty on a 9×9 grid can exhaust them mid-run.
	energies := []string{"none", "battery:4"}
	sum, err := campaign.Run(campaign.Spec{
		GridSizes:       []int{size},
		Protocols:       []string{protocol.NameProtectionless, protocol.AliasSLP},
		SearchDistances: []int{3},
		Channels:        channels,
		Energy:          energies,
		Repeats:         repeats,
		BaseSeed:        2017,
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	fmt.Printf("energy panel on a %d×%d grid: %d cells, %d seeds each, SD 3\n\n",
		size, size, sum.Cells, repeats)

	type key struct{ protocol, channel, energy string }
	byCell := make(map[key]campaign.Row, len(sum.Rows))
	for _, r := range sum.Rows {
		byCell[key{r.Protocol, r.LossModel, r.Energy}] = r
	}
	tbl := metrics.NewTable("protocol", "channel", "energy", "capture",
		"delivered/run", "captures won", "mJ total", "mJ max", "deaths", "lifetime")
	for _, p := range []string{protocol.NameProtectionless, protocol.AliasSLP} {
		for _, ch := range channels {
			for _, en := range energies {
				r := byCell[key{p, ch, en}]
				wins := "-"
				if r.CaptureWins > 0 {
					wins = fmt.Sprintf("%.1f", r.CaptureWins)
				}
				deaths, lifetime := "-", "-"
				if en != "none" {
					deaths = fmt.Sprintf("%.1f", r.EnergyDeaths)
					if r.EnergyDeaths > 0 {
						lifetime = fmt.Sprintf("%.1f", r.Lifetime)
					} else {
						lifetime = "full"
					}
				}
				tbl.AddRow(
					p, ch, en,
					fmt.Sprintf("%.0f%% (%d/%d)", r.CaptureRatio*100, r.Captures, r.Runs),
					fmt.Sprintf("%.1f", r.SourceDeliveries),
					wins,
					fmt.Sprintf("%.1f", r.EnergyTotal),
					fmt.Sprintf("%.2f", r.EnergyMax),
					deaths, lifetime,
				)
			}
		}
	}
	printTable(tbl)
	fmt.Println("\ncaptures won = frames that survived interference through SINR capture")
	fmt.Println("per run (only the @sinr channel resolves contention by power; the")
	fmt.Println("others drop every overlap). mJ total/max = mean network-wide and")
	fmt.Println("hottest-node spend; deaths = battery-exhausted nodes per run;")
	fmt.Println("lifetime = data periods until the first death ('full' when no node")
	fmt.Println("dies). The hottest nodes sit on the sink's shortest-path trunk, so")
	fmt.Println("battery deaths hit delivery before they hit privacy — the attacker")
	fmt.Println("needs traffic to trace, and a starving trunk gives it less.")
	// Output:
	// energy panel on a 9×9 grid: 12 cells, 20 seeds each, SD 3
	//
	// protocol        channel               energy     capture     delivered/run  captures won  mJ total  mJ max  deaths  lifetime
	// --------------  --------------------  ---------  ----------  -------------  ------------  --------  ------  ------  --------
	// protectionless  ideal                 none       40% (8/20)  43.0           -             0.0       0.00    -       -
	// protectionless  ideal                 battery:4  25% (5/20)  46.6           -             199.4     3.34    0.2     12.8
	// protectionless  logdist:2.4:4         none       10% (2/20)  51.3           -             0.0       0.00    -       -
	// protectionless  logdist:2.4:4         battery:4  30% (6/20)  46.0           -             198.4     3.24    0.1     12.5
	// protectionless  logdist:2.4:4@sinr:3  none       15% (3/20)  49.8           5.6           0.0       0.00    -       -
	// protectionless  logdist:2.4:4@sinr:3  battery:4  30% (6/20)  45.5           7.1           204.2     3.41    0.9     12.5
	// slp             ideal                 none       10% (2/20)  51.2           -             0.0       0.00    -       -
	// slp             ideal                 battery:4  15% (3/20)  50.4           -             221.8     3.94    3.7     13.6
	// slp             logdist:2.4:4         none       15% (3/20)  50.4           -             0.0       0.00    -       -
	// slp             logdist:2.4:4         battery:4  5% (1/20)   52.6           -             226.4     3.86    4.7     14.2
	// slp             logdist:2.4:4@sinr:3  none       5% (1/20)   52.5           6.8           0.0       0.00    -       -
	// slp             logdist:2.4:4@sinr:3  battery:4  0% (0/20)   53.9           6.3           227.8     3.99    5.5     14.5
	//
	// captures won = frames that survived interference through SINR capture
	// per run (only the @sinr channel resolves contention by power; the
	// others drop every overlap). mJ total/max = mean network-wide and
	// hottest-node spend; deaths = battery-exhausted nodes per run;
	// lifetime = data periods until the first death ('full' when no node
	// dies). The hottest nodes sit on the sink's shortest-path trunk, so
	// battery deaths hit delivery before they hit privacy — the attacker
	// needs traffic to trace, and a starving trunk gives it less.
}

// Example_protocolPanel sets every routing family against a spread of
// attacker strategies, as one campaign spec. The protocol table makes the
// simulator an SLP benchmark rather than one paper's artefact: the
// paper's pair (protectionless GCN-DAS and the 3-phase SLP-aware variant)
// sit on the same axis as sector phantom routing, fake-source backbones
// and tier-based intermediary routing, and every cell is scored on the
// identical capture / latency / overhead metrics. The whole panel is a
// pure function of the spec (seed 2017).
func Example_protocolPanel() {
	const (
		size    = 9
		repeats = 20
	)

	protocols := protocol.Names()
	// First-heard is the paper's D; unvisited-first (with H=2) represents
	// the history-driven hunters the SLP literature worries about.
	strategies := []string{"first-heard", "unvisited-first"}
	sum, err := campaign.Run(campaign.Spec{
		GridSizes:       []int{size},
		Protocols:       protocols,
		SearchDistances: []int{3},
		Strategies:      strategies,
		Attackers:       []attacker.Params{{R: 1, H: 2, M: 1}},
		Repeats:         repeats,
		BaseSeed:        2017,
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	fmt.Printf("protocol panel on a %d×%d grid: %d cells, %d seeds each, SD 3\n\n",
		size, size, sum.Cells, repeats)

	// Pivot the row stream into one line per family: capture ratio per
	// strategy, plus the latency and traffic columns shared by every cell
	// of the first strategy (the strategy axis only moves the attacker).
	type key struct{ protocol, strategy string }
	byCell := make(map[key]campaign.Row, len(sum.Rows))
	for _, r := range sum.Rows {
		byCell[key{r.Protocol, r.Strategy}] = r
	}
	tbl := metrics.NewTable("protocol", "capture (first-heard)", "capture (unvisited-first)",
		"latency (periods)", "deliveries/run", "msgs/run")
	for _, p := range protocols {
		fh, uv := byCell[key{p, strategies[0]}], byCell[key{p, strategies[1]}]
		tbl.AddRow(
			p,
			fmt.Sprintf("%.0f%% (%d/%d)", fh.CaptureRatio*100, fh.Captures, fh.Runs),
			fmt.Sprintf("%.0f%% (%d/%d)", uv.CaptureRatio*100, uv.Captures, uv.Runs),
			fmt.Sprintf("%.1f", fh.DeliveryLatency),
			fmt.Sprintf("%.1f", fh.SourceDeliveries),
			fmt.Sprintf("%.0f", fh.TotalMessages),
		)
	}
	printTable(tbl)
	fmt.Println("\ncapture = attacker reaches the source within the safety period;")
	fmt.Println("latency and traffic are means over the first-heard cells.")
	fmt.Println("the DAS families aggregate (everyone transmits each period), so their")
	fmt.Println("per-hop traffic cannot be back-traced; phantom and tier route hop by")
	fmt.Println("hop and pay for it in capture ratio — the paper's thesis, on one axis.")
	// Output:
	// protocol panel on a 9×9 grid: 10 cells, 20 seeds each, SD 3
	//
	// protocol        capture (first-heard)  capture (unvisited-first)  latency (periods)  deliveries/run  msgs/run
	// --------------  ---------------------  -------------------------  -----------------  --------------  --------
	// fake-source     0% (0/20)              0% (0/20)                  0.0                54.2            2054
	// phantom         100% (20/20)           100% (20/20)               0.0                7.0             889
	// protectionless  15% (3/20)             30% (6/20)                 0.0                49.8            1854
	// slp-das         10% (2/20)             15% (3/20)                 0.0                51.2            1944
	// tier            50% (10/20)            40% (8/20)                 0.0                14.7            963
	//
	// capture = attacker reaches the source within the safety period;
	// latency and traffic are means over the first-heard cells.
	// the DAS families aggregate (everyone transmits each period), so their
	// per-hop traffic cannot be back-traced; phantom and tier route hop by
	// hop and pay for it in capture ratio — the paper's thesis, on one axis.
}
