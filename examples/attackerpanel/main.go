// Attacker panel — the attacker-strength study as ONE campaign spec.
// Where examples/attackersweep hand-loops over (R, H, M) tuples, this
// example leans on the campaign engine's Cartesian expansion: every
// registered decision strategy × eavesdropper team size × both protocols,
// executed through one shared worker pool with the deterministic
// BaseSeed + cell·Repeats seed layout. The result is the panel the SLP
// literature reports — how much protection the scheme buys against a
// whole family of adversaries, not just the paper's (1,0,1) first-heard
// eavesdropper — reproducible byte-for-byte from this single spec.
package main

import (
	"fmt"
	"log"

	"slpdas"
	"slpdas/internal/attacker"
	"slpdas/internal/campaign"
	"slpdas/internal/metrics"
)

func main() {
	const (
		size    = 9
		repeats = 20
	)

	strategies := attacker.StrategyNames()
	spec := campaign.Spec{
		GridSizes:  []int{size},
		Protocols:  []string{campaign.Protectionless, campaign.SLPAware},
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
	}

	sum, err := slpdas.RunCampaign(spec)
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
			ratio[key{s, campaign.Protectionless, 1}],
			ratio[key{s, campaign.Protectionless, 3}],
			ratio[key{s, campaign.SLPAware, 1}],
			ratio[key{s, campaign.SLPAware, 3}],
		)
	}
	fmt.Print(tbl)
	fmt.Println("\ncapture = first of the team to reach the source within the safety period.")
	fmt.Println("note: patient needs an origin heard twice within one period's R-buffer;")
	fmt.Println("TDMA gives every node one slot per period, so it (honestly) stalls here.")
	fmt.Println("re-run me: every number above is a pure function of the spec (seed 100).")
}
