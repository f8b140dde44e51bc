// Energy panel — the privacy/lifetime trade under a realistic physical
// layer, as ONE campaign spec. The channel axis swaps the ideal disc for
// a log-distance path-loss channel with per-link shadowing and SINR
// capture; the energy axis puts every relay on a battery. The columns
// show what the physics costs: capture ratio (privacy), deliveries
// (utility), energy spent, and how many nodes the battery kills — the
// SLP-aware schedule pays for its privacy in joules as well as latency.
// The whole panel is a pure function of the spec — re-running this
// program reproduces every number byte-for-byte (seed 2017).
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

	// The channel axis: ideal disc, then log-distance path loss (exponent
	// 2.4) with 4 dB log-normal shadowing per link, without and with SINR
	// capture at a 3 dB threshold.
	channels := []string{"ideal", "logdist:2.4:4", "logdist:2.4:4@sinr:3"}
	// The energy axis: mains-powered, then batteries small enough that
	// relay duty on a 9×9 grid can exhaust them mid-run.
	energies := []string{"none", "battery:4"}
	spec := campaign.Spec{
		GridSizes:       []int{size},
		Protocols:       []string{protocol.NameProtectionless, protocol.AliasSLP},
		SearchDistances: []int{3},
		Channels:        channels,
		Energy:          energies,
		Repeats:         repeats,
		BaseSeed:        2017,
	}

	sum, err := slpdas.RunCampaign(spec)
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
	fmt.Print(tbl)
	fmt.Println("\ncaptures won = frames that survived interference through SINR capture")
	fmt.Println("per run (only the @sinr channel resolves contention by power; the")
	fmt.Println("others drop every overlap). mJ total/max = mean network-wide and")
	fmt.Println("hottest-node spend; deaths = battery-exhausted nodes per run;")
	fmt.Println("lifetime = data periods until the first death ('full' when no node")
	fmt.Println("dies). The hottest nodes sit on the sink's shortest-path trunk, so")
	fmt.Println("battery deaths hit delivery before they hit privacy — the attacker")
	fmt.Println("needs traffic to trace, and a starving trunk gives it less.")
}
