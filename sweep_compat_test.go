package slpdas_test

import (
	"bytes"
	"io"
	"os"
	"testing"

	"slpdas/internal/campaign"
)

// sweepCompatSpec is the repeat-heavy campaign pinned by the golden: two
// grids × two collision settings × both protocols, 12 repeats per cell, so
// every worker's arena rewinds one network many times across repeats AND
// across config cells (protocol and collision model change between cells
// sharing a topology).
func sweepCompatSpec(workers int) campaign.Spec {
	return campaign.Spec{
		GridSizes:       []int{5, 7},
		SearchDistances: []int{2},
		Collisions:      []bool{false, true},
		Repeats:         12,
		BaseSeed:        7,
		Workers:         workers,
	}
}

// TestSweepBackwardCompatible pins the acceptance criterion of the
// memoized-setup/arena rebuild: campaign JSONL output must be
// byte-identical to the pre-arena engine, which re-resolved the topology
// and rebuilt a fresh core.Network for every single repeat. The golden was
// generated at the last commit before the arena landed. A diff here means
// Network.Reset does not perfectly rewind some piece of run state.
func TestSweepBackwardCompatible(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_compat.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var buf bytes.Buffer
	sink := campaign.NewJSONL(&buf)
	if _, err := campaign.Run(sweepCompatSpec(4), sink); err != nil {
		t.Fatalf("campaign.Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("sweep output diverged from the pre-arena golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestSweepDeterministicAcrossWorkersAndCacheWarmth proves the topology
// cache, per-worker arenas and intra-cell repeat splitting never leak
// into results: the same spec yields rows byte-identical to the
// pre-arena golden at 1, 2, 4 and 8 workers (different arena reuse and
// repeat-partition patterns), and with a cold vs warm process-wide
// topology cache. Pinning every worker count to the golden — not just
// to each other — rules out a deterministic-but-wrong reduction.
func TestSweepDeterministicAcrossWorkersAndCacheWarmth(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_compat.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		sink := campaign.NewJSONL(&buf)
		if _, err := campaign.Run(sweepCompatSpec(workers), sink); err != nil {
			t.Fatalf("campaign.Run(workers=%d): %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	campaign.ResetTopologyCache()
	cold := render(1)
	warm := render(1)
	if !bytes.Equal(cold, warm) {
		t.Errorf("cache-cold vs cache-warm output differs:\n%s\nvs\n%s", cold, warm)
	}
	if !bytes.Equal(cold, want) {
		t.Errorf("workers=1 output diverged from the golden:\n--- got ---\n%s\n--- want ---\n%s", cold, want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); !bytes.Equal(want, got) {
			t.Errorf("workers=%d output diverged from the golden:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

// TestShardMergeBackwardCompatible pins the tentpole invariant on the
// real simulator: the sweep-compat campaign run as n independent shards
// — each shard under a different worker count, so arena reuse and
// scheduling differ per shard — merges back byte-identical to the
// pre-arena golden, i.e. to a single-process run.
func TestShardMergeBackwardCompatible(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_compat.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	for _, shardCount := range []int{2, 3} {
		srcs := make([]io.Reader, shardCount)
		for i := 0; i < shardCount; i++ {
			spec := sweepCompatSpec(1 + i*2) // workers 1, 3, 5, ...
			spec.Shard = campaign.Shard{Index: i, Count: shardCount}
			var buf bytes.Buffer
			sink := campaign.NewJSONL(&buf)
			sum, err := campaign.Run(spec, sink)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, shardCount, err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("shard %d/%d Close: %v", i, shardCount, err)
			}
			if got := sum.Cells - sum.Skipped; got != len(sum.Rows) {
				t.Errorf("shard %d/%d: %d executed cells but %d rows", i, shardCount, got, len(sum.Rows))
			}
			srcs[i] = bytes.NewReader(buf.Bytes())
		}
		var merged bytes.Buffer
		n, err := campaign.MergeJSONL(&merged, srcs...)
		if err != nil {
			t.Fatalf("merge %d shards: %v", shardCount, err)
		}
		if n != 8 {
			t.Errorf("merged %d cells, want 8", n)
		}
		if !bytes.Equal(merged.Bytes(), want) {
			t.Errorf("%d-shard merged output diverged from the golden:\n--- got ---\n%s\n--- want ---\n%s", shardCount, merged.Bytes(), want)
		}
	}
}

// TestKillAndResumeBackwardCompatible is the kill-and-resume round trip
// on the real simulator: tear the golden mid-row (exactly what a kill
// during a buffered write leaves behind), recover the completed cells,
// truncate to the last complete row and append a resumed run — the file
// must come back byte-identical to the uninterrupted golden.
func TestKillAndResumeBackwardCompatible(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_compat.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	for _, cut := range []int{0, 40, len(want) / 2, len(want) - 2} {
		spec := sweepCompatSpec(4)
		completed, valid, err := spec.ScanResumable(bytes.NewReader(want[:cut]), "jsonl")
		if err != nil {
			t.Fatalf("cut %d: ScanResumable: %v", cut, err)
		}
		file := bytes.NewBuffer(append([]byte(nil), want[:valid]...))
		spec.Skip = completed
		sink := campaign.NewJSONL(file)
		sum, err := campaign.Run(spec, sink)
		if err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		if sum.Skipped != len(completed) {
			t.Errorf("cut %d: skipped %d cells, want %d", cut, sum.Skipped, len(completed))
		}
		if !bytes.Equal(file.Bytes(), want) {
			t.Errorf("cut %d: resumed file diverged from the golden:\n--- got ---\n%s\n--- want ---\n%s", cut, file.Bytes(), want)
		}
	}
}
