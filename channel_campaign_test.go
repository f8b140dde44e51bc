package slpdas_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"slpdas"
	"slpdas/internal/campaign"
)

// channelCampaignSpec crosses the new channel and energy axes with the
// fault and protocol axes: a shadowed SINR channel, battery-powered nodes,
// fault-free and churn cells, both protocols. Per-link shadowing redraws
// per repeat from the cell seed and batteries deplete mid-run, so any leak
// of worker scheduling, arena reuse or shard order into the channel or
// energy state diverges here.
func channelCampaignSpec(workers int) campaign.Spec {
	return campaign.Spec{
		GridSizes:       []int{5},
		SearchDistances: []int{2},
		Protocols:       []string{"protectionless", "slp"},
		Channels:        []string{"logdist:2.4:4@sinr:3"},
		Faults:          []string{"none", "churn:0.25:2"},
		Energy:          []string{"battery:8"},
		Repeats:         6,
		BaseSeed:        13,
		Workers:         workers,
	}
}

func renderChannelCampaign(t *testing.T, spec campaign.Spec) []byte {
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

// TestChannelEnergyCampaignDeterministic pins the tentpole determinism
// criterion for the physical-layer axes: a campaign sweeping channels ×
// faults × protocols with batteries live is byte-identical across 1, 2, 4
// and 8 workers, across a 2-way shard+merge, and across a kill+resume —
// all against the single-worker reference. The non-vacuity guards prove
// the new physics actually fired: SINR captures occurred and batteries
// actually depleted nodes.
func TestChannelEnergyCampaignDeterministic(t *testing.T) {
	want := renderChannelCampaign(t, channelCampaignSpec(1))
	if !strings.Contains(string(want), `"loss_model":"logdist:2.4:4@sinr:3"`) {
		t.Fatalf("rows do not carry the canonical channel coordinate:\n%s", want)
	}
	if !strings.Contains(string(want), `"energy":"battery:8"`) {
		t.Fatalf("rows do not carry the canonical energy coordinate:\n%s", want)
	}
	rows, _, err := campaign.ReadRows(bytes.NewReader(want), "jsonl")
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	var deaths float64
	for _, r := range rows {
		deaths += r.EnergyDeaths
		if r.EnergyTotal <= 0 {
			t.Fatalf("cell %d reports zero energy spend; the meter is vacuous", r.Cell)
		}
		if r.CaptureWins <= 0 {
			t.Fatalf("cell %d reports zero SINR captures; the capture path is vacuous", r.Cell)
		}
	}
	if deaths <= 0 {
		t.Fatalf("no cell reports battery depletions; the energy-death path is vacuous:\n%s", want)
	}

	for _, workers := range []int{2, 4, 8} {
		if got := renderChannelCampaign(t, channelCampaignSpec(workers)); !bytes.Equal(got, want) {
			t.Errorf("workers=%d output diverged:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}

	// Shard 2 ways under different worker counts, merge, compare.
	srcs := make([]io.Reader, 2)
	for i := range srcs {
		spec := channelCampaignSpec(1 + i*3)
		spec.Shard = campaign.Shard{Index: i, Count: 2}
		srcs[i] = bytes.NewReader(renderChannelCampaign(t, spec))
	}
	var merged bytes.Buffer
	if _, err := campaign.MergeJSONL(&merged, srcs...); err != nil {
		t.Fatalf("MergeJSONL: %v", err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Errorf("2-shard merged output diverged:\n--- got ---\n%s\n--- want ---\n%s", merged.Bytes(), want)
	}

	// Kill mid-file and resume: recover completed cells from the torn
	// prefix, append the rest, and the file must match the reference.
	for _, cut := range []int{0, len(want) / 2, len(want) - 2} {
		spec := channelCampaignSpec(4)
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

// TestChannelEnergyResumeVerification: ScanResumable accepts the very file
// a channel+energy spec produced, and rejects it under a different energy
// axis — the energy coordinate is part of resume verification.
func TestChannelEnergyResumeVerification(t *testing.T) {
	out := renderChannelCampaign(t, channelCampaignSpec(2))
	completed, _, err := channelCampaignSpec(2).ScanResumable(bytes.NewReader(out), "jsonl")
	if err != nil {
		t.Fatalf("ScanResumable rejected its own output: %v", err)
	}
	if len(completed) != 4 {
		t.Errorf("recovered %d cells, want 4", len(completed))
	}
	other := channelCampaignSpec(2)
	other.Energy = []string{"battery:100"}
	if _, _, err := other.ScanResumable(bytes.NewReader(out), "jsonl"); err == nil {
		t.Error("ScanResumable accepted a file with a different energy axis")
	} else if !strings.Contains(err.Error(), "energy") {
		t.Errorf("mismatch error does not name the energy coordinate: %v", err)
	}
}
