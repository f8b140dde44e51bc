package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/fault"
	"slpdas/internal/protocol"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
)

// simFlags are the flags that configure one grid run, shared by run, topo
// and verify.
type simFlags struct {
	size, sd, nattackers      int
	seed                      uint64
	protocol, atk, strategy   string
	channel, faults, energy   string
	sharedHistory, collisions bool
}

// parseSim registers the simulation flags on fs beside the command's own,
// parses args and builds the run's config; protocol is the command's
// default -protocol. A value the config would silently replace with a
// default, or one campaign.BuildConfig rejects, is a usageError.
func parseSim(fs *flag.FlagSet, args []string, protocol string) (simFlags, core.Config, error) {
	var f simFlags
	fs.IntVar(&f.size, "size", 11, "grid size")
	fs.StringVar(&f.protocol, "protocol", protocol, "routing protocol (see 'slpsim protocols')")
	fs.IntVar(&f.sd, "sd", 3, "search distance (slp-das search / phantom walk length)")
	fs.Uint64Var(&f.seed, "seed", 1, "base random seed")
	fs.StringVar(&f.atk, "attacker", "1,0,1", "attacker parameters R,H,M")
	fs.StringVar(&f.strategy, "strategy", "", "attacker strategy (see 'slpsim strategies'; default first-heard)")
	fs.IntVar(&f.nattackers, "nattackers", 1, "eavesdropper team size")
	fs.BoolVar(&f.sharedHistory, "shared-history", false, "pool one H-window across the team")
	fs.StringVar(&f.channel, "channel", "ideal", "channel model: ideal, bernoulli:<p>, rssi, logdist:<n>:<sigma>[@sinr:<threshold>]")
	fs.BoolVar(&f.collisions, "collisions", false, "enable receiver-side collisions")
	fs.StringVar(&f.faults, "faults", "none", "fault injection: "+fault.Grammar)
	fs.StringVar(&f.energy, "energy", "none", "energy model: none, battery:<capacity>[:<tx>:<rx>:<idle>] (mJ)")
	if err := parseFlags(fs, args); err != nil {
		return f, core.Config{}, err
	}
	atk, err := attacker.ParseParams(f.atk)
	if err != nil {
		return f, core.Config{}, usageError{fmt.Errorf("%s: -attacker: %w", fs.Name(), err)}
	}
	// Below these floors a value is either replaced by a default (a zero
	// team is one attacker), which would run a different experiment from
	// the one reported, or fails later without naming its flag.
	if err := atLeast(fs, floor{"-size", f.size, 2}, floor{"-sd", f.sd, 1}, floor{"-attacker R", atk.R, 1},
		floor{"-attacker M", atk.M, 1}, floor{"-nattackers", f.nattackers, 1}); err != nil {
		return f, core.Config{}, err
	}
	cfg, err := campaign.BuildConfig(f.protocol, f.sd, campaign.AttackerSetup{
		Params:        atk,
		Strategy:      f.strategy,
		Count:         f.nattackers,
		SharedHistory: f.sharedHistory,
	}, f.channel, f.collisions, f.faults, f.energy)
	if err != nil {
		return f, core.Config{}, usageError{err}
	}
	return f, cfg, nil
}

// ignoredFlag refuses the first flag set on the command line that ignored
// reports true for: the command's output would not depend on it.
func ignoredFlag(fs *flag.FlagSet, ignored func(name string) bool, why string) error {
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err == nil && ignored(fl.Name) {
			err = usageError{fmt.Errorf("%s: -%s has no effect: %s", fs.Name(), fl.Name, why)}
		}
	})
	return err
}

// floor is the least value a flag accepts.
type floor struct {
	name   string
	v, min int
}

// atLeast refuses the first flag value below its floor with a usageError
// naming the flag. Commands check their floors before printing anything.
func atLeast(fs *flag.FlagSet, floors ...floor) error {
	for _, f := range floors {
		if f.v < f.min {
			return usageError{fmt.Errorf("%s: %s must be at least %d, got %d", fs.Name(), f.name, f.min, f.v)}
		}
	}
	return nil
}

func runCustom(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	repeats := fs.Int("repeats", 20, "simulation repetitions")
	f, cfg, err := parseSim(fs, args, protocol.NameProtectionless)
	if err != nil {
		return err
	}
	if err := atLeast(fs, floor{"-repeats", *repeats, 1}); err != nil {
		return err
	}
	agg, err := experiment.Run(experiment.Spec{GridSize: f.size, Config: cfg, Repeats: *repeats, BaseSeed: f.seed})
	if err != nil {
		return err
	}
	atkDesc := fmt.Sprintf("attacker %d,%d,%d", cfg.Attacker.R, cfg.Attacker.H, cfg.Attacker.M)
	if f.strategy != "" || f.nattackers > 1 {
		atkDesc = fmt.Sprintf("%s %s x%d", atkDesc, cfg.Strategy.Name, cfg.AttackerCount)
		if f.sharedHistory {
			atkDesc += " shared-history"
		}
	}
	capture := agg.CaptureRatio
	fmt.Printf("%s on %d×%d grid, %d runs (seed %d, loss %s, %s)\n",
		f.protocol, f.size, f.size, capture.Trials, f.seed, f.channel, atkDesc)
	fmt.Printf("  capture ratio     : %.1f%% ±%.1f (%d/%d)\n",
		capture.Value()*100, capture.CI95()*100, capture.Successes, capture.Trials)
	if capture.Successes > 0 {
		fmt.Printf("  mean capture time : %.1f periods\n", agg.CapturePeriods.Mean)
	}
	fmt.Printf("  valid schedules   : %.0f%%\n", agg.ScheduleValid.Value()*100)
	fmt.Printf("  control traffic   : %.1f msgs (%.0f bytes) per run\n", agg.ControlMessages.Mean, agg.ControlBytes.Mean)
	if cfg.Protocol.SearchPhase {
		fmt.Printf("  slots changed     : %.1f nodes per run\n", agg.ChangedNodes.Mean)
	}
	return nil
}

// runTopo renders one grid run: node/edge statistics, hop distances, the
// slot map the protocol built or the attacker's walk.
func runTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	show := fs.String("show", "stats", "what to render: stats, slots, hops or walk")
	f, cfg, err := parseSim(fs, args, protocol.NameProtectionless)
	if err != nil {
		return err
	}
	switch *show {
	case "stats", "hops":
		if err := ignoredFlag(fs, func(name string) bool { return name != "size" && name != "show" },
			"-show "+*show+" reads only -size"); err != nil {
			return err
		}
	case "slots", "walk":
	default:
		return usageError{fmt.Errorf("topo: unknown -show %q", *show)}
	}
	size, seed := f.size, f.seed
	g, err := topo.DefaultGrid(size)
	if err != nil {
		return err
	}
	sink, source := topo.GridCentre(size), topo.GridTopLeft()

	switch *show {
	case "stats":
		fmt.Printf("%s: %d nodes, %d edges, radio range %.1f m\n", g.Name(), g.Len(), g.EdgeCount(), g.RadioRange())
		fmt.Printf("sink %d (centre), source %d (top-left), Δss = %d hops, diameter = %d\n",
			sink, source, g.HopDistance(sink, source), g.Diameter())
		return nil
	case "hops":
		dist := g.BFSFrom(sink)
		fmt.Printf("hop distances from the sink (%d):\n", sink)
		fmt.Print(topo.RenderGrid(size, func(n topo.NodeID) string {
			return strconv.Itoa(dist[n])
		}))
		return nil
	}
	net, err := core.NewNetwork(g, sink, source, cfg, seed)
	if err != nil {
		return err
	}
	res, err := net.Run()
	if err != nil {
		return err
	}
	if *show == "slots" {
		fmt.Printf("%s slot assignment (seed %d; K sink, S source, ! changed by Phase 3):\n", res.Protocol, seed)
		fmt.Print(topo.RenderGrid(size, func(n topo.NodeID) string {
			label := ""
			switch {
			case n == sink:
				label = "K"
			case n == source:
				label = "S"
			}
			if net.Changed(n) {
				label += "!"
			}
			if !res.Assignment.Assigned(n) {
				return label + "·"
			}
			return label + strconv.Itoa(res.Assignment.Slot(n))
		}))
		return nil
	}
	onPath := map[topo.NodeID]int{}
	for i, n := range res.AttackerPath {
		onPath[n] = i
	}
	fmt.Printf("%s attacker walk (seed %d): %v\n", res.Protocol, seed, res.AttackerPath)
	if res.Captured {
		fmt.Printf("captured after %.1f periods (safety period %.1f)\n", res.CapturePeriods, res.SafetyPeriod)
	} else {
		fmt.Printf("not captured within the safety period (%.1f periods)\n", res.SafetyPeriod)
	}
	fmt.Print(topo.RenderGrid(size, func(n topo.NodeID) string {
		if i, ok := onPath[n]; ok {
			return strconv.Itoa(i)
		}
		switch n {
		case sink:
			return "K"
		case source:
			return "S"
		}
		return "·"
	}))
	return nil
}

// runVerify runs the paper's decision procedure (Algorithm 1) against the
// schedule the distributed protocol builds: it executes the setup phases
// and decides whether the slot assignment is δ-SLP-aware, printing the
// violating attacker trace when it is not, like a model checker's
// counterexample.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	decision := fs.String("decision", "first", "attacker decision set: first, any or unvisited")
	delta := fs.Int("delta", 0, "safety period in TDMA periods (0 = paper's 1.5·(Δss+1))")
	allowWait := fs.Bool("allow-wait", false, "let the attacker defer moves past its per-period budget")
	showMap := fs.Bool("map", false, "print the slot assignment and counterexample as an ASCII map")
	f, cfg, err := parseSim(fs, args, protocol.AliasSLP)
	if err != nil {
		return err
	}
	if err := atLeast(fs, floor{"-delta", *delta, 0}); err != nil {
		return err
	}
	if err := ignoredFlag(fs, func(name string) bool {
		return name == "strategy" || name == "nattackers" || name == "shared-history"
	}, "verify's one attacker is set by -attacker and -decision"); err != nil {
		return err
	}
	d, ok := map[string]verify.DecisionSet{
		"first":     verify.FirstHeardD,
		"any":       verify.AnyHeardD,
		"unvisited": verify.UnvisitedD,
	}[*decision]
	if !ok {
		return usageError{fmt.Errorf("verify: unknown -decision %q", *decision)}
	}
	size := f.size
	g, err := topo.DefaultGrid(size)
	if err != nil {
		return err
	}
	sink, source := topo.GridCentre(size), topo.GridTopLeft()
	net, err := core.NewNetwork(g, sink, source, cfg, f.seed)
	if err != nil {
		return err
	}
	assignment, err := net.RunSetup()
	if err != nil {
		return err
	}

	fmt.Printf("schedule: %d×%d grid, seed %d, sink %d, source %d, Δss %d\n",
		size, size, f.seed, sink, source, net.DeltaSS())
	fmt.Printf("  weak DAS      : %v\n", describe(schedule.CheckWeakDAS(g, assignment)))
	fmt.Printf("  strong DAS    : %v\n", describe(schedule.CheckStrongDAS(g, assignment)))
	fmt.Printf("  non-colliding : %v\n", describe(schedule.CheckNonColliding(g, assignment)))

	if *delta == 0 {
		*delta = int(net.SafetyPeriods())
	}
	p := cfg.Attacker
	p.Start = sink
	res, err := verify.VerifySchedule(g, assignment, p, d, *delta, source, verify.Options{AllowWait: *allowWait})
	if err != nil {
		return err
	}

	fmt.Printf("\nVerifySchedule((%d,%d,%d,sink,D), δ=%d): ", p.R, p.H, p.M, *delta)
	onTrace := map[topo.NodeID]bool{}
	if res.SLPAware {
		fmt.Printf("(True, ⊥, %d) — the schedule is %d-SLP-aware for the source\n", *delta, *delta)
	} else {
		fmt.Printf("(False, pc, %d) — captured within the safety period\n", res.CapturePeriod)
		fmt.Printf("  counterexample pc (%d steps): %v\n", len(res.Counterexample)-1, res.Counterexample)
		for _, n := range res.Counterexample {
			onTrace[n] = true
		}
	}
	fmt.Printf("  states explored: %d\n", res.StatesExplored)

	if *showMap {
		fmt.Println("\nslot map ('*' marks the counterexample trace, K sink, S source):")
		fmt.Print(topo.RenderGrid(size, func(n topo.NodeID) string {
			label := ""
			switch {
			case n == sink:
				label = "K"
			case n == source:
				label = "S"
			}
			slot := "·"
			if assignment.Assigned(n) {
				slot = strconv.Itoa(assignment.Slot(n))
			}
			if onTrace[n] {
				return label + slot + "*"
			}
			return label + slot
		}))
	}
	return nil
}

// describe summarises a schedule check: "ok", or the count and the first
// three violations, separated by "; " since each contains spaces.
func describe(violations []schedule.Violation) string {
	if len(violations) == 0 {
		return "ok"
	}
	shown := make([]string, min(3, len(violations)))
	for i := range shown {
		shown[i] = violations[i].String()
	}
	return fmt.Sprintf("%d violations, e.g. %s", len(violations), strings.Join(shown, "; "))
}
