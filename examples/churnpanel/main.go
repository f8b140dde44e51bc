// Churn panel — graceful degradation under node churn, as ONE campaign
// spec. The fault-injection axis sweeps crash-with-recovery rates over
// both of the paper's protocols, and the degradation columns show the
// trade: capture ratio (privacy), delivery ratio through the churn window
// (utility), and schedule self-healing time (how many TDMA periods the
// network needs to re-acquire slots after a rejoin). The whole panel is a
// pure function of the spec — re-running this program reproduces every
// number byte-for-byte (seed 2017).
package main

import (
	"fmt"
	"log"

	"slpdas"
	"slpdas/internal/campaign"
	"slpdas/internal/metrics"
	"slpdas/internal/protocol"
)

func main() {
	const (
		size    = 9
		repeats = 20
	)

	// The fault axis: from fault-free to one node in four cycling, all with
	// a mean-time-to-recovery of 2 TDMA periods.
	faults := []string{"none", "churn:0.05:2", "churn:0.15:2", "churn:0.25:2"}
	spec := campaign.Spec{
		GridSizes:       []int{size},
		Protocols:       []string{protocol.NameProtectionless, protocol.AliasSLP},
		SearchDistances: []int{3},
		Faults:          faults,
		Repeats:         repeats,
		BaseSeed:        2017,
	}

	sum, err := slpdas.RunCampaign(spec)
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
	fmt.Print(tbl)
	fmt.Println("\ndelivery during/after = unique source messages reaching the sink per")
	fmt.Println("data period inside and after the fault window; repair = periods from")
	fmt.Println("the first crash to the last slot re-acquisition. Rejoining nodes run")
	fmt.Println("neighbour discovery again and pull slots from their neighbours, so the")
	fmt.Println("schedule self-heals without a global restart. Churn events are spread")
	fmt.Println("across the whole data phase, so the 'after' window is only the few")
	fmt.Println("periods past the last rejoin — small, and empty for runs that end")
	fmt.Println("early on capture — which is why it reads low next to 'during'.")
}
