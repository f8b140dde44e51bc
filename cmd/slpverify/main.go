// Command slpverify runs the paper's decision procedure (Algorithm 1)
// against a schedule produced by the distributed protocol: it builds a
// grid network, executes the setup phases, and decides whether the
// resulting slot assignment is δ-SLP-aware, printing the violating
// attacker trace when it is not — like a model checker's counterexample.
//
// Usage:
//
//	slpverify [-size N] [-protocol NAME] [-sd D] [-seed S]
//	          [-attacker R,H,M] [-decision first|any|unvisited]
//	          [-delta P] [-allow-wait] [-map]
//
// NAME is any routing family `slpsim protocols` lists, or the alias slp;
// the schedule-building run is configured exactly as `slpsim run
// -protocol NAME -sd D -attacker R,H,M` configures its runs, on the ideal
// channel. An unknown NAME exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/schedule"
	"slpdas/internal/topo"
	"slpdas/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("slpverify", flag.ContinueOnError)
	size := fs.Int("size", 11, "grid size")
	protocol := fs.String("protocol", "slp", "routing protocol (see 'slpsim protocols')")
	sd := fs.Int("sd", 3, "search distance (slp-das search / phantom walk length)")
	seed := fs.Uint64("seed", 1, "random seed for the schedule-building run")
	atk := fs.String("attacker", "1,0,1", "attacker parameters R,H,M")
	decision := fs.String("decision", "first", "attacker decision set: first, any or unvisited")
	delta := fs.Int("delta", 0, "safety period in TDMA periods (0 = paper's 1.5·(Δss+1))")
	allowWait := fs.Bool("allow-wait", false, "let the attacker defer moves past its per-period budget")
	showMap := fs.Bool("map", false, "print the slot assignment and counterexample as an ASCII map")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		// flag stops at the first positional argument; refuse it rather
		// than silently drop it and every flag after it.
		fmt.Fprintf(os.Stderr, "slpverify: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	var r, h, m int
	if _, err := fmt.Sscanf(*atk, "%d,%d,%d", &r, &h, &m); err != nil {
		fmt.Fprintf(os.Stderr, "slpverify: bad -attacker %q (want R,H,M)\n", *atk)
		return 2
	}
	var d verify.DecisionSet
	switch *decision {
	case "first":
		d = verify.FirstHeardD
	case "any":
		d = verify.AnyHeardD
	case "unvisited":
		d = verify.UnvisitedD
	default:
		fmt.Fprintf(os.Stderr, "slpverify: unknown decision %q\n", *decision)
		return 2
	}

	cfg, err := campaign.BuildConfig(*protocol, *sd, campaign.AttackerSetup{Params: attacker.Params{R: r, H: h, M: m}},
		"ideal", false, "none", "none")
	if err != nil {
		fmt.Fprintf(os.Stderr, "slpverify: %v\n", err)
		return 2
	}

	if err := verifyRun(*size, cfg, *seed, verify.Params{R: r, H: h, M: m}, d, *delta, *allowWait, *showMap); err != nil {
		fmt.Fprintf(os.Stderr, "slpverify: %v\n", err)
		return 1
	}
	return 0
}

func verifyRun(size int, cfg core.Config, seed uint64, p verify.Params, d verify.DecisionSet, delta int, allowWait, showMap bool) error {
	g, err := topo.DefaultGrid(size)
	if err != nil {
		return err
	}
	sink, source := topo.GridCentre(size), topo.GridTopLeft()
	net, err := core.NewNetwork(g, sink, source, cfg, seed)
	if err != nil {
		return err
	}
	assignment, err := net.RunSetup()
	if err != nil {
		return err
	}

	fmt.Printf("schedule: %d×%d grid, seed %d, sink %d, source %d, Δss %d\n",
		size, size, seed, sink, source, net.DeltaSS())
	fmt.Printf("  weak DAS      : %v\n", describe(schedule.CheckWeakDAS(g, assignment)))
	fmt.Printf("  strong DAS    : %v\n", describe(schedule.CheckStrongDAS(g, assignment)))
	fmt.Printf("  non-colliding : %v\n", describe(schedule.CheckNonColliding(g, assignment)))

	if delta <= 0 {
		delta = int(net.SafetyPeriods())
	}
	p.Start = sink
	res, err := verify.VerifySchedule(g, assignment, p, d, delta, source, verify.Options{AllowWait: allowWait})
	if err != nil {
		return err
	}

	fmt.Printf("\nVerifySchedule((%d,%d,%d,sink,D), δ=%d): ", p.R, p.H, p.M, delta)
	onTrace := map[topo.NodeID]bool{}
	if res.SLPAware {
		fmt.Printf("(True, ⊥, %d) — the schedule is %d-SLP-aware for the source\n", delta, delta)
	} else {
		fmt.Printf("(False, pc, %d) — captured within the safety period\n", res.CapturePeriod)
		fmt.Printf("  counterexample pc (%d steps): %v\n", len(res.Counterexample)-1, res.Counterexample)
		for _, n := range res.Counterexample {
			onTrace[n] = true
		}
	}
	fmt.Printf("  states explored: %d\n", res.StatesExplored)

	if showMap {
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

func describe(violations []schedule.Violation) string {
	if len(violations) == 0 {
		return "ok"
	}
	max := 3
	if len(violations) < max {
		max = len(violations)
	}
	return fmt.Sprintf("%d violations, e.g. %v", len(violations), violations[:max])
}
