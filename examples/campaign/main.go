// Campaign example: the Figure 5 sweep — capture ratio vs network size
// for both protocols — expressed as one declarative campaign.Spec instead
// of nested loops. Rows stream to a buffered JSONL sink as cells finish
// (durable once the sink is closed); the paper's table is rendered at the
// end from the same rows, which the campaign Summary also returns.
package main

import (
	"fmt"
	"log"
	"os"

	"slpdas"
	"slpdas/internal/campaign"
	"slpdas/internal/protocol"
)

func main() {
	const repeats = 20

	out, err := os.Create("results.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()

	jsonl := campaign.NewJSONL(out)
	sum, err := slpdas.RunCampaign(campaign.Spec{
		GridSizes:       []int{11, 15, 21}, // Figure 5's x-axis
		SearchDistances: []int{3},          // Figure 5(a)
		Repeats:         repeats,
		BaseSeed:        1,
		// Flush the sink every other cell: if this process dies,
		// everything up to the last checkpoint is already durable in
		// results.jsonl, and re-running with the completed cells skipped
		// (Spec.ScanResumable + Spec.Skip, or slpsweep -resume) appends
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
}
