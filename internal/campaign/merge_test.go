package campaign

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"slpdas/internal/protocol"
)

// shardOutputs runs spec once per shard through the stub runner and
// returns each shard's JSONL bytes plus the single-process output.
func shardOutputs(t *testing.T, spec Spec, n int) (shards [][]byte, single []byte) {
	t.Helper()
	render := func(s Spec) []byte {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		if _, err := run(s, stubRun, sink); err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	single = render(spec)
	for i := 0; i < n; i++ {
		s := spec
		s.Shard = Shard{Index: i, Count: n}
		shards = append(shards, render(s))
	}
	return shards, single
}

func mergeShards(shards [][]byte) (int, []byte, error) {
	srcs := make([]io.Reader, len(shards))
	for i, b := range shards {
		srcs[i] = bytes.NewReader(b)
	}
	var out bytes.Buffer
	n, err := MergeJSONL(&out, srcs...)
	return n, out.Bytes(), err
}

// TestMergeJSONLRoundTrip pins the tentpole invariant at the engine
// level: shard outputs merged back together are byte-identical to the
// single-process run, for several shard counts (including more shards
// than cells, leaving some shards empty).
func TestMergeJSONLRoundTrip(t *testing.T) {
	spec := Spec{GridSizes: []int{5, 7}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 3, BaseSeed: 9}
	for _, n := range []int{2, 3, 5, 16} {
		shards, single := shardOutputs(t, spec, n)
		got, merged, err := mergeShards(shards)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if got != 8 {
			t.Errorf("%d shards: merged %d cells, want 8", n, got)
		}
		if !bytes.Equal(merged, single) {
			t.Errorf("%d shards: merged output differs from single-process run:\n%s\nvs\n%s", n, merged, single)
		}
	}
}

// TestMergeJSONLUnorderedSources: merge accepts shard files in any
// order (the stream interleaves by cell index), but rows *within* a
// source must be in increasing cell order — the order the engine writes
// and -resume preserves — so the merge can stream in O(sources) memory.
func TestMergeJSONLUnorderedSources(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2}
	shards, single := shardOutputs(t, spec, 2)
	// Shard files in reversed order merge fine.
	_, merged, err := mergeShards([][]byte{shards[1], shards[0]})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(merged, single) {
		t.Errorf("reversed-source merge differs from single-process run")
	}
	// A backwards jump inside one source violates the ordering contract.
	// Source A carries cells 0,2,1 and source B cells 1,3, so the jump in
	// A is reached right after its cell 2 is merged.
	lines := bytes.SplitAfter(single, []byte("\n"))
	disordered := append(append(append([]byte{}, lines[0]...), lines[2]...), lines[1]...)
	ordered := append(append([]byte{}, lines[1]...), lines[3]...)
	if _, _, err := mergeShards([][]byte{disordered, ordered}); err == nil || !strings.Contains(err.Error(), "increasing cell order") {
		t.Errorf("within-source disorder: err = %v", err)
	}
	// The same cell twice in a row inside one source is called out as a
	// within-source duplicate.
	doubled := append(append(append([]byte{}, lines[0]...), lines[0]...), lines[1]...)
	if _, _, err := mergeShards([][]byte{doubled, lines[2], lines[3]}); err == nil || !strings.Contains(err.Error(), "twice within") {
		t.Errorf("within-source duplicate: err = %v", err)
	}
}

func TestMergeJSONLDetectsGap(t *testing.T) {
	spec := Spec{GridSizes: []int{5, 7}, SearchDistances: []int{1, 2}, Repeats: 2}
	shards, _ := shardOutputs(t, spec, 3)
	_, _, err := mergeShards([][]byte{shards[0], shards[2]}) // shard 1 missing
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v, want missing-cell error", err)
	}
}

func TestMergeJSONLDetectsDuplicates(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, SearchDistances: []int{1, 2}, Repeats: 2}
	shards, _ := shardOutputs(t, spec, 2)
	// Same shard twice: identical duplicate.
	_, _, err := mergeShards([][]byte{shards[0], shards[1], shards[0]})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("identical duplicate: err = %v", err)
	}
	// Same cell, different bytes: conflict.
	conflict := bytes.Replace(shards[0], []byte(`"nodes":25`), []byte(`"nodes":26`), 1)
	_, _, err = mergeShards([][]byte{conflict, shards[0], shards[1]})
	if err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("conflicting duplicate: err = %v", err)
	}
}

func TestMergeJSONLDetectsForeignCampaign(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, SearchDistances: []int{1, 2}, Repeats: 2, BaseSeed: 1}
	shards, _ := shardOutputs(t, spec, 2)
	// A shard of the same matrix from a different base seed: every row
	// still parses, but the implied campaign seed disagrees.
	other := spec
	other.BaseSeed = 999
	otherShards, _ := shardOutputs(t, other, 2)
	_, _, err := mergeShards([][]byte{shards[0], otherShards[1]})
	if err == nil || !strings.Contains(err.Error(), "different campaigns") {
		t.Errorf("foreign seed: err = %v", err)
	}
	// A shard with a different repeat count.
	moreReps := spec
	moreReps.Repeats = 5
	repShards, _ := shardOutputs(t, moreReps, 2)
	_, _, err = mergeShards([][]byte{shards[0], repShards[1]})
	if err == nil || !strings.Contains(err.Error(), "different specs") {
		t.Errorf("foreign repeats: err = %v", err)
	}
}

func TestMergeJSONLRejectsTornShard(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, SearchDistances: []int{1, 2}, Repeats: 2}
	shards, _ := shardOutputs(t, spec, 2)
	torn := shards[1][:len(shards[1])-5]
	_, _, err := mergeShards([][]byte{shards[0], torn})
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("err = %v, want torn-shard error", err)
	}
}

func TestMergeJSONLEmptyInputs(t *testing.T) {
	n, merged, err := mergeShards([][]byte{nil, nil})
	if err != nil || n != 0 || len(merged) != 0 {
		t.Errorf("empty merge: n=%d out=%q err=%v", n, merged, err)
	}
}
