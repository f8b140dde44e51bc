package slpdas_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"slpdas"
	"slpdas/internal/campaign"
)

// faultCampaignSpec is a small campaign with the fault axis live: one grid,
// both protocols, a churn and a crash cell per protocol. Fault plans are
// minted per repeat from the cell seed, so any leak of worker scheduling or
// arena reuse into plan minting would diverge here.
func faultCampaignSpec(workers int) campaign.Spec {
	return campaign.Spec{
		GridSizes:       []int{5},
		SearchDistances: []int{2},
		Faults:          []string{"churn:0.25:2", "crash:0.2"},
		Repeats:         6,
		BaseSeed:        11,
		Workers:         workers,
	}
}

func renderFaultCampaign(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := campaign.NewJSONL(&buf)
	if _, err := slpdas.RunCampaign(spec, sink); err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestFaultAxisCampaignDeterministic pins the tentpole determinism
// criterion for faulted campaigns: byte-identical JSONL across 1, 2, 4 and
// 8 workers, across a 3-way shard+merge, and across a kill+resume — all
// against the single-worker reference.
func TestFaultAxisCampaignDeterministic(t *testing.T) {
	want := renderFaultCampaign(t, faultCampaignSpec(1))
	if !strings.Contains(string(want), `"faults":"churn:0.25:2"`) {
		t.Fatalf("rows do not carry the canonical fault coordinate:\n%s", want)
	}
	// Churn at rate 0.25 over 23 eligible nodes across 6 repeats must
	// actually inject faults — a silently fault-free run would make this
	// test vacuous.
	if strings.Contains(string(want), `"nodes_failed":0,"nodes_recovered":0`) {
		t.Fatalf("fault cells report zero failures:\n%s", want)
	}

	for _, workers := range []int{2, 4, 8} {
		if got := renderFaultCampaign(t, faultCampaignSpec(workers)); !bytes.Equal(got, want) {
			t.Errorf("workers=%d output diverged:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}

	// Shard 3 ways under different worker counts, merge, compare.
	srcs := make([]io.Reader, 3)
	for i := range srcs {
		spec := faultCampaignSpec(1 + i*2)
		spec.Shard = campaign.Shard{Index: i, Count: 3}
		srcs[i] = bytes.NewReader(renderFaultCampaign(t, spec))
	}
	var merged bytes.Buffer
	if _, err := campaign.MergeJSONL(&merged, srcs...); err != nil {
		t.Fatalf("MergeJSONL: %v", err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Errorf("3-shard merged output diverged:\n--- got ---\n%s\n--- want ---\n%s", merged.Bytes(), want)
	}

	// Kill mid-file and resume: recover completed cells from the torn
	// prefix, append the rest, and the file must match the reference.
	for _, cut := range []int{0, len(want) / 2, len(want) - 2} {
		spec := faultCampaignSpec(4)
		completed, valid, err := spec.ScanResumable(bytes.NewReader(want[:cut]), "jsonl")
		if err != nil {
			t.Fatalf("cut %d: ScanResumable: %v", cut, err)
		}
		file := bytes.NewBuffer(append([]byte(nil), want[:valid]...))
		spec.Skip = completed
		sink := campaign.NewJSONL(file)
		if _, err := slpdas.RunCampaign(spec, sink); err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		if !bytes.Equal(file.Bytes(), want) {
			t.Errorf("cut %d: resumed file diverged:\n--- got ---\n%s\n--- want ---\n%s", cut, file.Bytes(), want)
		}
	}
}

// TestFaultAxisResumeVerification: ScanResumable accepts the very file a
// faulted spec produced, and rejects it under a different fault axis — the
// faults coordinate is part of resume verification.
func TestFaultAxisResumeVerification(t *testing.T) {
	out := renderFaultCampaign(t, faultCampaignSpec(2))
	completed, _, err := faultCampaignSpec(2).ScanResumable(bytes.NewReader(out), "jsonl")
	if err != nil {
		t.Fatalf("ScanResumable rejected its own output: %v", err)
	}
	if len(completed) != 4 {
		t.Errorf("recovered %d cells, want 4", len(completed))
	}
	other := faultCampaignSpec(2)
	other.Faults = []string{"crash:0.5", "link:0.1"}
	if _, _, err := other.ScanResumable(bytes.NewReader(out), "jsonl"); err == nil {
		t.Error("ScanResumable accepted a file with a different fault axis")
	} else if !strings.Contains(err.Error(), "faults") {
		t.Errorf("mismatch error does not name the faults coordinate: %v", err)
	}
}
