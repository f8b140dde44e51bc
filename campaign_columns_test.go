package slpdas_test

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"slpdas/internal/campaign"
)

var updateColumns = flag.Bool("update", false, "rewrite testdata/campaign_columns.*.golden from the current output")

// columnsSpec is the campaign behind the column goldens, the library form
// of
//
//	slpsim campaign -sizes 5 -sd 2 -protocols protectionless,slp,phantom \
//	    -channels logdist:2.4:4@sinr:3 -faults none,churn:0.25:2,blackout:0.6@2 \
//	    -energy none,battery:8 -repeats 3 -seed 13
//
// Eighteen cells that between them drive every metric column away from
// zero (see TestCampaignColumnsGolden), in about a hundredth of a second.
func columnsSpec() campaign.Spec {
	return campaign.Spec{
		GridSizes:       []int{5},
		SearchDistances: []int{2},
		Protocols:       []string{"protectionless", "slp", "phantom"},
		Channels:        []string{"logdist:2.4:4@sinr:3"},
		Faults:          []string{"none", "churn:0.25:2", "blackout:0.6@2"},
		Energy:          []string{"none", "battery:8"},
		Repeats:         3,
		BaseSeed:        13,
	}
}

// TestCampaignColumnsGolden pins the bytes of every campaign column, in
// both file formats, on a spec whose fault, channel and energy axes make
// the trailing columns carry real values. Run with -update to rewrite
// the goldens after an intended change.
func TestCampaignColumnsGolden(t *testing.T) {
	var jsonlBuf, csvBuf bytes.Buffer
	jsonl, csv := campaign.NewJSONL(&jsonlBuf), campaign.NewCSV(&csvBuf)
	if _, err := campaign.Run(columnsSpec(), jsonl, csv); err != nil {
		t.Fatalf("campaign.Run: %v", err)
	}
	for _, s := range []campaign.Sink{jsonl, csv} {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	for path, got := range map[string][]byte{
		"testdata/campaign_columns.jsonl.golden": jsonlBuf.Bytes(),
		"testdata/campaign_columns.csv.golden":   csvBuf.Bytes(),
	} {
		if *updateColumns {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("campaign output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
		}
	}

	// Non-vacuity: a golden whose column is zero in every row cannot tell
	// that column from a dropped one. Every metric column (the numeric
	// columns from "runs" on) must be non-zero somewhere, except the two
	// this spec cannot move: every TDMA family delivers within one period,
	// and no run fails.
	exempt := map[string]bool{"delivery_latency_slots": true, "failures": true}
	rows, _, err := campaign.ReadRows(bytes.NewReader(jsonlBuf.Bytes()), "jsonl")
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	if len(rows) != 18 {
		t.Fatalf("%d rows, want 18", len(rows))
	}
	rt := reflect.TypeOf(campaign.Row{})
	metrics := false
	for i := 0; i < rt.NumField(); i++ {
		name := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		metrics = metrics || name == "runs"
		kind := rt.Field(i).Type.Kind()
		if !metrics || exempt[name] || kind == reflect.String || kind == reflect.Bool {
			continue
		}
		nonZero := false
		for _, r := range rows {
			nonZero = nonZero || !reflect.ValueOf(r).Field(i).IsZero()
		}
		if !nonZero {
			t.Errorf("column %s is zero in every row; the golden does not pin it", name)
		}
	}
}
