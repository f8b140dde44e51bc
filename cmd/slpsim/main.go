// Command slpsim drives the paper's evaluation (Section VI): it
// regenerates Figure 5(a), Figure 5(b), Table I and the message-overhead
// comparison, runs custom simulation batches, renders one grid run's
// topology, slot map or attacker walk, checks the schedule a run builds
// with the paper's decision procedure (Algorithm 1), and runs whole
// campaigns over every scenario axis. The paper's whole evaluation is one
// campaign:
//
//	slpsim campaign -sizes 11,15,21 -protocols protectionless,slp -sd 3 \
//	                -repeats 100 -out fig5a.jsonl
//
// Usage:
//
//	slpsim fig5a    [-repeats N] [-seed S] [-sizes 11,15,21] [-csv out.csv]
//	slpsim fig5b    [-repeats N] [-seed S] [-sizes 11,15,21] [-csv out.csv]
//	slpsim table1
//	slpsim overhead [-size N] [-sd D] [-repeats N] [-seed S]
//	slpsim sweep    [-what sd|attacker|strategy|loss] [-size N] [-sd D]
//	                [-repeats N] [-seed S]
//	slpsim run      SIMFLAGS [-repeats N]
//	slpsim topo     SIMFLAGS [-show stats|hops|slots|walk]
//	slpsim verify   SIMFLAGS [-decision first|any|unvisited] [-delta P]
//	                [-allow-wait] [-map]
//	slpsim campaign [-sizes 7,11] [-topologies grid|line:<n>|ring:<n>|rgg:<n>#<seed>,...]
//	                [-protocols NAME,...] [-sd 1,3] [-attackers R,H,M[;R,H,M...]]
//	                [-strategies NAME,...] [-nattackers 1,2,3] [-shared-history false,true]
//	                [-channels SPEC,...] [-collisions false,true] [-faults SPEC,...]
//	                [-energy SPEC,...] [-repeats N] [-seed S] [-workers W]
//	                [-out results.jsonl] [-format jsonl|csv]
//	                [-resume] [-shard i/n] [-checkpoint N] [-quiet]
//	slpsim merge    [-out merged.jsonl] [-cells N] [-quiet] SHARD...
//	slpsim protocols
//	slpsim strategies
//
// SIMFLAGS configure one grid run (source top-left, sink centre) the same
// way for run, topo and verify:
//
//	[-size N] [-protocol NAME] [-sd D] [-seed S]
//	[-attacker R,H,M] [-strategy NAME] [-nattackers K] [-shared-history]
//	[-channel ideal|bernoulli:<p>|rssi|logdist:<n>:<sigma>[@sinr:<t>]]
//	[-collisions] [-faults SPEC] (fault.Parse grammar; -help lists it)
//	[-energy none|battery:<capacity>[:<tx>:<rx>:<idle>]]
//
// NAME is any family 'slpsim protocols' lists, or the alias slp; verify
// defaults to slp, run and topo to protectionless. A flag value the
// command rejects, or would otherwise silently replace with a default,
// exits 2 with a message naming the flag; so does a flag the output does
// not depend on: topo -show stats|hops reads only -size, and verify's one
// attacker takes no -strategy, -nattackers or -shared-history.
//
// campaign takes each axis as a list of the values SIMFLAGS take one of,
// and writes one row per cell; the same flags and seed give byte-identical
// rows whatever -workers is. An empty axis list exits 2, like a value
// below its floor. merge reassembles the outputs of 'campaign -shard i/n'
// into the file one unsharded campaign writes; it is the one command that
// takes positional arguments, the shard files, and a flag after them
// exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"slpdas/internal/attacker"
	"slpdas/internal/channel"
	"slpdas/internal/core"
	"slpdas/internal/experiment"
	"slpdas/internal/metrics"
	"slpdas/internal/protocol"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "fig5a":
		err = runFigure5(args[0], 3, args[1:])
	case "fig5b":
		err = runFigure5(args[0], 5, args[1:])
	case "table1", "protocols", "strategies":
		err = runListing(args[0], args[1:])
	case "overhead":
		err = runOverhead(args[1:])
	case "run":
		err = runCustom(args[1:])
	case "topo":
		err = runTopo(args[1:])
	case "verify":
		err = runVerify(args[1:])
	case "sweep":
		err = runSweep(args[1:])
	case "campaign":
		err = runCampaign(args[1:])
	case "merge":
		err = runMerge(args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "slpsim: unknown command %q\n", args[0])
		usage()
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0 // flag has printed the command's flags
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "slpsim: %v\n", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// usageError is a command-line mistake: a flag the command rejects or a
// stray positional argument. It exits 2, like an unknown command.
type usageError struct{ error }

// parseFlags parses a command's flags and rejects positional arguments,
// which flag stops at and would otherwise drop silently, together with
// every flag after them. merge alone takes positional arguments, its
// shard files, and rejects only those that look like a flag. -h returns
// flag.ErrHelp unwrapped.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err == flag.ErrHelp {
		return err
	} else if err != nil {
		return usageError{err}
	}
	for _, a := range fs.Args() {
		if fs.Name() != "merge" || strings.HasPrefix(a, "-") {
			return usageError{fmt.Errorf("%s: unexpected argument %q", fs.Name(), a)}
		}
	}
	return nil
}

// runListing prints one of the commands that take no flags.
func runListing(name string, args []string) error {
	if err := parseFlags(flag.NewFlagSet(name, flag.ContinueOnError), args); err != nil {
		return err
	}
	switch name {
	case "table1":
		fmt.Println("Table I: parameters for protectionless and SLP DAS")
		fmt.Println()
		fmt.Print(experiment.TableI())
	case "protocols":
		fmt.Println("registered protocols:")
		fmt.Println()
		for _, p := range protocol.Protocols() {
			fmt.Printf("  %-16s %s\n", p.Name, p.Summary)
		}
	case "strategies":
		fmt.Println("registered attacker strategies:")
		fmt.Println()
		for _, s := range attacker.Strategies() {
			fmt.Printf("  %-16s %s\n", s.Name, s.Summary)
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `slpsim — SLP-aware DAS evaluation driver (ICDCS 2017 reproduction)

commands:
  fig5a     capture ratio vs network size, search distance 3 (Figure 5a)
  fig5b     capture ratio vs network size, search distance 5 (Figure 5b)
  table1    print the protocol parameter table (Table I)
  overhead  message overhead of SLP DAS vs protectionless DAS
  run       custom simulation batch
  topo      render one grid run: -show stats | hops | slots | walk
  verify    check a run's schedule with Algorithm 1
  sweep     ablations: -what sd | attacker | strategy | loss
  campaign  run every cell of a scenario grid to JSONL or CSV (-resume, -shard)
  merge     reassemble sharded campaign outputs: merge [-out F] [-cells N] SHARD...
  protocols   list the routing protocols
  strategies  list the attacker strategies

run 'slpsim <command> -h' for the command's flags.`)
}

// runFigure5 runs fig5a or fig5b, named by name: Figure 5's panel for the
// given search distance.
func runFigure5(name string, searchDistance int, args []string) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	repeats := fs.Int("repeats", 100, "simulation repetitions per cell")
	seed := fs.Uint64("seed", 1, "base random seed")
	sizesArg := fs.String("sizes", "11,15,21", "comma-separated grid sizes")
	csvPath := fs.String("csv", "", "also write the series as CSV to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := atLeast(fs, floor{"-repeats", *repeats, 1}); err != nil {
		return err
	}
	l := lists{fs: fs}
	sizes := l.ints("sizes", *sizesArg, 2)
	if l.err != nil {
		return l.err
	}
	fmt.Printf("Figure 5(%s): capture ratio, search distance %d, %d repeats/cell\n\n",
		strings.TrimPrefix(name, "fig5"), searchDistance, *repeats)
	fig, err := experiment.RunFigure5(experiment.Figure5Spec{
		GridSizes:      sizes,
		SearchDistance: searchDistance,
		Repeats:        *repeats,
		BaseSeed:       *seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(fig.Table())
	if *csvPath != "" {
		if err := writeCSV(*csvPath, fig.Table()); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	for _, p := range fig.Points {
		fmt.Printf("\nsize %d detail: prot valid=%s, slp valid=%s, changed=%.1f nodes, search ok=%s\n",
			p.GridSize, p.ProtectionlessAgg.ScheduleValid, p.SLPAgg.ScheduleValid,
			p.SLPAgg.ChangedNodes.Mean, p.SLPAgg.SearchSucceeded)
	}
	return nil
}

// writeCSV writes t to a new file at path. A failed close can drop the
// buffered tail of the file, so it fails the command too.
func writeCSV(path string, t *metrics.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteCSV(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func runOverhead(args []string) error {
	fs := flag.NewFlagSet("overhead", flag.ContinueOnError)
	size := fs.Int("size", 11, "grid size")
	sd := fs.Int("sd", 3, "search distance")
	repeats := fs.Int("repeats", 50, "simulation repetitions per protocol")
	seed := fs.Uint64("seed", 1, "base random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := atLeast(fs, floor{"-size", *size, 2}, floor{"-sd", *sd, 1}, floor{"-repeats", *repeats, 1}); err != nil {
		return err
	}
	fmt.Printf("Message overhead, %d×%d grid, SD=%d, %d repeats/protocol\n\n", *size, *size, *sd, *repeats)
	o, err := experiment.RunOverhead(*size, *sd, *repeats, *seed)
	if err != nil {
		return err
	}
	fmt.Print(o.Table())
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	what := fs.String("what", "sd", "ablation to run: sd, attacker, strategy or loss")
	size := fs.Int("size", 11, "grid size")
	sd := fs.Int("sd", 3, "search distance (attacker/strategy/loss sweeps)")
	repeats := fs.Int("repeats", 30, "simulation repetitions per cell")
	seed := fs.Uint64("seed", 1, "base random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// The sd ablation sets the search distance itself, and the attacker
	// one simulates nothing: refuse the flag each would drop.
	var err error
	switch *what {
	case "sd":
		err = ignoredFlag(fs, func(name string) bool { return name == "sd" }, "-what sd sweeps the search distance from 1 to 7")
	case "attacker":
		err = ignoredFlag(fs, func(name string) bool { return name == "repeats" }, "-what attacker checks each attacker exhaustively, once")
	}
	if err != nil {
		return err
	}
	if err := atLeast(fs, floor{"-size", *size, 2}, floor{"-sd", *sd, 1}, floor{"-repeats", *repeats, 1}); err != nil {
		return err
	}
	switch *what {
	case "sd":
		fmt.Printf("search-distance ablation, %d×%d grid, %d repeats/cell\n\n", *size, *size, *repeats)
		var arms []experiment.Arm
		for sd := 1; sd <= 7; sd++ {
			arms = append(arms, experiment.Arm{Labels: []string{strconv.Itoa(sd)}, Config: core.DefaultSLP(sd)})
		}
		tbl, _, err := experiment.Ablation(*size, *repeats, *seed, []string{"search distance"}, arms, []experiment.Column{
			{Header: "capture ratio", Metric: "capture_ratio"},
			{Header: "changed nodes", Metric: "changed_nodes"},
		})
		if err != nil {
			return err
		}
		fmt.Print(tbl)
	case "attacker":
		fmt.Printf("attacker-strength ablation (exhaustive worst case), %d×%d grid, seed %d\n\n", *size, *size, *seed)
		points, err := experiment.AttackerSweep(*size, core.DefaultSLP(*sd), *seed, []attacker.Params{
			{R: 1, H: 0, M: 1},
			{R: 2, H: 0, M: 1},
			{R: 2, H: 0, M: 2},
			{R: 3, H: 0, M: 2},
			{R: 3, H: 1, M: 2},
		})
		if err != nil {
			return err
		}
		fmt.Print(experiment.AttackerTable(points))
	case "strategy":
		// R=2, H=2 rather than the paper's (1,0,1): patient needs R >= 2 to
		// ever corroborate and unvisited-first needs H > 0 to differ from
		// first-heard, so the (1,0,1) default would compare strategies that
		// cannot express their behaviour.
		base := core.DefaultSLP(*sd)
		base.Attacker.R = 2
		base.Attacker.H = 2
		fmt.Printf("attacker-strategy ablation (simulated), %d×%d grid, SD=%d, attacker (%d,%d,%d), %d repeats/cell\n\n",
			*size, *size, *sd, base.Attacker.R, base.Attacker.H, base.Attacker.M, *repeats)
		var arms []experiment.Arm
		for _, strat := range attacker.Strategies() {
			for _, count := range []int{1, 2} {
				cfg := base
				cfg.Strategy = strat
				cfg.AttackerCount = count
				arms = append(arms, experiment.Arm{Labels: []string{strat.Name, strconv.Itoa(count)}, Config: cfg})
			}
		}
		tbl, _, err := experiment.Ablation(*size, *repeats, *seed, []string{"strategy", "attackers"}, arms, []experiment.Column{
			{Header: "capture ratio", Metric: "capture_ratio"},
			{Header: "mean capture periods", Metric: "mean_capture_periods"},
		})
		if err != nil {
			return err
		}
		fmt.Print(tbl)
	case "loss":
		fmt.Printf("channel-model ablation, %d×%d grid, SD=%d, %d repeats/cell\n\n", *size, *size, *sd, *repeats)
		// The paper-era trio: ideal, 5% Bernoulli loss and the rssi noise
		// substitute, labelled in alphabetical order.
		var arms []experiment.Arm
		for _, m := range []struct {
			label string
			ch    channel.Model
		}{{"bernoulli-0.05", channel.Bernoulli{P: 0.05}}, {"ideal", channel.Ideal{}}, {"rssi-noise", channel.RSSI{}}} {
			cfg := core.DefaultSLP(*sd)
			cfg.Channel = m.ch
			arms = append(arms, experiment.Arm{Labels: []string{m.label}, Config: cfg})
		}
		tbl, _, err := experiment.Ablation(*size, *repeats, *seed, []string{"channel model"}, arms, []experiment.Column{
			{Header: "capture ratio", Metric: "capture_ratio"},
			{Header: "valid schedules", Metric: "schedule_valid_ratio"},
		})
		if err != nil {
			return err
		}
		fmt.Print(tbl)
	default:
		return usageError{fmt.Errorf("sweep: unknown -what %q", *what)}
	}
	return nil
}
