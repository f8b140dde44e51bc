package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// MergeJSONL merges the JSONL outputs of a sharded campaign (see
// Spec.Shard) back into one stream in canonical cell order, and returns
// the number of cells written. Sources may be given in any order, but
// rows within each source must be in increasing cell order — which is
// how the engine writes them, and which -resume preserves — letting the
// merge stream with O(sources) memory instead of buffering the whole
// campaign (the 10⁴–10⁶-cell grids sharding exists for would not fit).
// It verifies the sources really partition one campaign:
//
//   - no duplicates: a cell appearing twice is an error, whether the
//     rows agree (overlapping shards, a source listed twice) or not
//     (a conflict);
//   - no gaps: the merged cell indices must be contiguous from 0 — a
//     missing cell means a shard output is absent or was interrupted;
//   - no coordinate conflicts: every row must agree on Repeats and on
//     the campaign seed implied by its (cell, base_seed) pair, i.e. all
//     sources must come from the same Spec and seed layout;
//   - no torn tails: a source ending mid-line is an incomplete shard —
//     finish it (slpsim campaign -resume) before merging.
//
// Rows are copied byte-for-byte from the sources, so the merged stream is
// exactly what a single-process run of the full Spec would have written.
func MergeJSONL(dst io.Writer, srcs ...io.Reader) (int, error) {
	type source struct {
		br   *bufio.Reader
		name int    // 1-based, for error messages
		line []byte // current complete line; nil when exhausted
		cell int
		read int // lines consumed so far
	}

	// Cross-source spec consistency, accumulated as rows stream.
	repeats := -1
	var campaignSeed uint64
	seedKnown := false

	// advance loads s's next complete line, enforcing within-source cell
	// ordering and the shared seed layout.
	advance := func(s *source) error {
		prev := s.cell
		s.line = nil
		line, err := s.br.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				return fmt.Errorf("campaign: merge: source %d has a torn final line — the shard is incomplete, finish it with -resume before merging", s.name)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("campaign: merge: source %d: %w", s.name, err)
		}
		s.read++
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("campaign: merge: source %d line %d: %w", s.name, s.read, err)
		}
		if row.Cell <= prev {
			if row.Cell == prev {
				return fmt.Errorf("campaign: merge: source %d line %d: cell %d appears twice within the source", s.name, s.read, row.Cell)
			}
			return fmt.Errorf("campaign: merge: source %d line %d: cell %d after cell %d — campaign outputs are written in increasing cell order; is the file corrupt?", s.name, s.read, row.Cell, prev)
		}
		if repeats == -1 {
			repeats = row.Repeats
		} else if row.Repeats != repeats {
			return fmt.Errorf("campaign: merge: cell %d has repeats %d, other cells have %d — sources are from different specs", row.Cell, row.Repeats, repeats)
		}
		// The seed layout BaseSeed = campaign seed + cell·repeats is
		// invertible per row; every row must invert to the same campaign
		// seed.
		implied := row.BaseSeed - uint64(row.Cell)*uint64(row.Repeats)
		if !seedKnown {
			campaignSeed, seedKnown = implied, true
		} else if implied != campaignSeed {
			return fmt.Errorf("campaign: merge: cell %d implies campaign seed %d, other cells imply %d — sources are from different campaigns", row.Cell, implied, campaignSeed)
		}
		s.line, s.cell = line, row.Cell
		return nil
	}

	sources := make([]*source, len(srcs))
	for i, r := range srcs {
		sources[i] = &source{br: bufio.NewReader(r), name: i + 1, cell: -1}
		if err := advance(sources[i]); err != nil {
			return 0, err
		}
	}

	bw := bufio.NewWriter(dst)
	written := 0    // next expected cell index
	var prev []byte // last written line, for duplicate diagnosis
	for {
		// The source holding the smallest current cell. Shard counts are
		// process counts — a handful — so a linear scan beats a heap.
		var min *source
		for _, s := range sources {
			if s.line != nil && (min == nil || s.cell < min.cell) {
				min = s
			}
		}
		if min == nil {
			break
		}
		switch {
		case min.cell < written:
			// Sources are strictly increasing, so a duplicate always
			// surfaces while the first copy is the most recent write.
			if bytes.Equal(min.line, prev) {
				return written, fmt.Errorf("campaign: merge: cell %d appears twice (overlapping shards or a source listed twice?)", min.cell)
			}
			return written, fmt.Errorf("campaign: merge: cell %d appears twice with conflicting rows", min.cell)
		case min.cell > written:
			return written, fmt.Errorf("campaign: merge: cell %d missing — a shard output is absent or incomplete", written)
		}
		if _, err := bw.Write(min.line); err != nil {
			return written, err
		}
		prev = min.line
		written++
		if err := advance(min); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}
