// Command slptopo inspects topologies and the schedules the distributed
// protocol builds on them: node/edge statistics, hop distances, slot maps
// and the attacker's walk.
//
// Usage:
//
//	slptopo [-size N] [-protocol NAME] [-sd D] [-seed S]
//	        [-show slots|hops|walk|stats]
//
// NAME is any routing family `slpsim protocols` lists, or the alias slp;
// the run is configured exactly as `slpsim run -protocol NAME -sd D`
// configures its runs, on the ideal channel. An unknown NAME exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"slpdas/internal/campaign"
	"slpdas/internal/core"
	"slpdas/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("slptopo", flag.ContinueOnError)
	size := fs.Int("size", 11, "grid size")
	protocol := fs.String("protocol", "protectionless", "routing protocol (see 'slpsim protocols')")
	sd := fs.Int("sd", 3, "search distance (slp-das search / phantom walk length)")
	seed := fs.Uint64("seed", 1, "random seed")
	show := fs.String("show", "stats", "what to render: stats, slots, hops or walk")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		// flag stops at the first positional argument; refuse it rather
		// than silently drop it and every flag after it.
		fmt.Fprintf(os.Stderr, "slptopo: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg, err := campaign.BuildConfig(*protocol, *sd, campaign.AttackerSetup{Params: core.Default().Attacker},
		"ideal", false, "none", "none")
	if err != nil {
		fmt.Fprintf(os.Stderr, "slptopo: %v\n", err)
		return 2
	}
	if err := inspect(*size, cfg, *seed, *show); err != nil {
		fmt.Fprintf(os.Stderr, "slptopo: %v\n", err)
		return 1
	}
	return 0
}

func inspect(size int, cfg core.Config, seed uint64, show string) error {
	g, err := topo.DefaultGrid(size)
	if err != nil {
		return err
	}
	sink, source := topo.GridCentre(size), topo.GridTopLeft()

	switch show {
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
	case "slots", "walk":
		net, err := core.NewNetwork(g, sink, source, cfg, seed)
		if err != nil {
			return err
		}
		res, err := net.Run()
		if err != nil {
			return err
		}
		if show == "slots" {
			fmt.Printf("%s slot assignment (seed %d; K sink, S source, ! changed by Phase 3):\n", res.Protocol, seed)
			fmt.Print(topo.RenderGrid(size, func(n topo.NodeID) string {
				label := ""
				switch {
				case n == sink:
					label = "K"
				case n == source:
					label = "S"
				}
				if net.NodeState(n).Changed {
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
	default:
		return fmt.Errorf("unknown -show %q", show)
	}
}
