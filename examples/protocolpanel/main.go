// Protocol panel — every registered routing family against a spread of
// attacker strategies, as ONE campaign spec. The protocol registry makes
// the simulator an SLP benchmark rather than one paper's artefact: the
// paper's pair (protectionless GCN-DAS and the 3-phase SLP-aware variant)
// sit on the same axis as sector phantom routing, fake-source backbones
// and tier-based intermediary routing, and every cell is scored on the
// identical capture / latency / overhead metrics. The whole panel is a
// pure function of the spec — re-running this program reproduces every
// number byte-for-byte (seed 2017).
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

	protocols := campaign.ProtocolNames()
	// First-heard is the paper's D; unvisited-first (with H=2) represents
	// the history-driven hunters the SLP literature worries about.
	strategies := []string{"first-heard", "unvisited-first"}
	spec := campaign.Spec{
		GridSizes:       []int{size},
		Protocols:       protocols,
		SearchDistances: []int{3},
		Strategies:      strategies,
		Attackers:       []attacker.Params{{R: 1, H: 2, M: 1}},
		Repeats:         repeats,
		BaseSeed:        2017,
	}

	sum, err := slpdas.RunCampaign(spec)
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
	fmt.Print(tbl)
	fmt.Println("\ncapture = attacker reaches the source within the safety period;")
	fmt.Println("latency and traffic are means over the first-heard cells.")
	fmt.Println("the DAS families aggregate (everyone transmits each period), so their")
	fmt.Println("per-hop traffic cannot be back-traced; phantom and tier route hop by")
	fmt.Println("hop and pay for it in capture ratio — the paper's thesis, on one axis.")
}
