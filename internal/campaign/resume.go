package campaign

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"slpdas/internal/attacker"
)

// This file is the read side of the sink contract: recovering the
// completed cells of an interrupted campaign from its (possibly torn)
// output file, so a later run can Skip them and append only what is
// missing. A row counts as complete only when its line is
// newline-terminated AND parses — a kill mid-write leaves a trailing
// fragment, and a flush that happened to end exactly on a line boundary
// leaves none; both resume cleanly. The byte offset just past the last
// complete line is reported so callers can truncate the torn tail before
// appending (slpsweep -resume does exactly that).

// scanLines walks the complete, newline-terminated lines of r, calling
// fn with each line (newline included). It returns the byte offset just
// past the last complete line, plus any unterminated trailing fragment —
// the torn tail of an interrupted write, which callers decide whether to
// tolerate (resume) or reject (merge).
func scanLines(r io.Reader, fn func(n int, line []byte) error) (valid int64, torn []byte, err error) {
	br := bufio.NewReader(r)
	for n := 0; ; n++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return valid, line, nil
		}
		if err != nil {
			return valid, nil, err
		}
		if err := fn(n, line); err != nil {
			return valid, nil, err
		}
		valid += int64(len(line))
	}
}

// LoadRows parses the complete rows of a JSONL campaign output,
// tolerating a torn final line (which is simply not a row yet). It
// returns the rows and the byte offset just past the last complete row —
// the length to truncate the file to before appending more rows. A
// malformed line that IS newline-terminated is real corruption and an
// error.
func LoadRows(r io.Reader) ([]Row, int64, error) {
	var rows []Row
	valid, err := scanRows(r, "jsonl", func(_ int, row Row) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, valid, err
	}
	return rows, valid, nil
}

// ScanCompleted streams a JSONL campaign output and returns the set of
// completed cell indices plus the byte offset just past the last complete
// row, tolerating a torn final line. Feed the set to Spec.Skip (or
// Spec.CompletedCells), truncate the file to the offset, and re-run the
// same Spec to resume.
func ScanCompleted(r io.Reader) (map[int]bool, int64, error) {
	return scanCells(r, "jsonl", nil)
}

// scanCells returns the cells of the complete rows of a campaign output
// and the byte offset just past the last one, after check (when non-nil)
// accepts each row with its 0-based line number.
func scanCells(r io.Reader, format string, check func(n int, row Row) error) (map[int]bool, int64, error) {
	cells := make(map[int]bool)
	valid, err := scanRows(r, format, func(n int, row Row) error {
		if check != nil {
			if err := check(n, row); err != nil {
				return err
			}
		}
		cells[row.Cell] = true
		return nil
	})
	if err != nil {
		return nil, valid, err
	}
	return cells, valid, nil
}

// scanRows walks the complete rows of a campaign output in the given
// format ("jsonl" or "csv", "" = jsonl), calling fn with each row and its
// 0-based line number, and returns the byte offset just past the last
// complete line. A CSV file's first line must be the canonical header.
// Line-based CSV scanning is sound because no Row field ever serializes
// with an embedded newline.
func scanRows(r io.Reader, format string, fn func(n int, row Row) error) (int64, error) {
	if format != "" && format != "jsonl" && format != "csv" {
		return 0, fmt.Errorf("campaign: unknown format %q (want jsonl or csv)", format)
	}
	valid, _, err := scanLines(r, func(n int, line []byte) error {
		var row Row
		if format == "csv" {
			rec, err := csv.NewReader(bytes.NewReader(line)).Read()
			if err == nil && n == 0 {
				return checkCSVHeader(rec)
			}
			if err == nil {
				row, err = parseCSVRecord(rec)
			}
			if err != nil {
				return fmt.Errorf("campaign: csv line %d: %w", n+1, err)
			}
		} else if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("campaign: jsonl line %d: %w", n+1, err)
		}
		return fn(n, row)
	})
	return valid, err
}

// ScanResumable is the safe front door for resuming: it recovers the
// completed cells of a partial output file in the given format ("jsonl"
// or "csv", "" = jsonl) like ScanCompleted, and additionally verifies
// that every recovered row carries exactly the coordinates, seed layout
// and repeat count this Spec assigns its cell index. A resume attempted
// with a mistyped seed, a changed axis flag or simply the wrong file
// fails here with the first mismatch, instead of silently producing a
// file that mixes two campaigns. slpsweep -resume goes through this.
func (s Spec) ScanResumable(r io.Reader, format string) (map[int]bool, int64, error) {
	cells, err := s.withDefaults().Expand()
	if err != nil {
		return nil, 0, err
	}
	if _, err := s.skipFunc(); err != nil { // validate the shard up front
		return nil, 0, err
	}
	check := func(n int, row Row) error {
		if row.Cell < 0 || row.Cell >= len(cells) {
			return fmt.Errorf("campaign: resume: line %d: cell %d outside this spec's %d-cell matrix — was the file produced with different flags?", n+1, row.Cell, len(cells))
		}
		if sh := s.Shard; sh.Count > 1 && row.Cell%sh.Count != sh.Index {
			// A recovered cell outside this spec's shard slice means the
			// file belongs to a different shard; appending this shard's
			// cells after it would corrupt both.
			return fmt.Errorf("campaign: resume: line %d: cell %d is not in shard %d/%d — wrong -shard or wrong file?", n+1, row.Cell, sh.Index, sh.Count)
		}
		if msg := cellRowMismatch(cells[row.Cell], row); msg != "" {
			return fmt.Errorf("campaign: resume: line %d (cell %d): %s — the file belongs to a different campaign", n+1, row.Cell, msg)
		}
		return nil
	}
	return scanCells(r, format, check)
}

// cellRowMismatch reports how row r's coordinate fields differ from what
// cell c would emit, or "" when they all match. Only coordinates are
// compared — the measured metrics legitimately vary with nothing but the
// seed, which the BaseSeed check pins. Rows carry the *resolved* attacker
// coordinates (core.Config normalizes a zero team size to 1 and an empty
// strategy to the default), so the cell's values are normalized the same
// way before comparing — a spec must accept the very file it produced.
func cellRowMismatch(c Cell, r Row) string {
	wantStrategy := c.Strategy
	if wantStrategy == "" {
		wantStrategy = attacker.DefaultStrategy
	}
	wantAttackers := c.AttackerCount
	if wantAttackers <= 0 {
		wantAttackers = 1
	}
	// Files written before the fault axis existed carry no faults field;
	// those campaigns were all fault-free, so "" matches the default axis.
	gotFaults := r.Faults
	if gotFaults == "" {
		gotFaults = "none"
	}
	wantFaults := c.Faults
	if wantFaults == "" {
		wantFaults = "none"
	}
	// Same story for files written before the energy axis existed.
	gotEnergy := r.Energy
	if gotEnergy == "" {
		gotEnergy = "none"
	}
	wantEnergy := c.Energy
	if wantEnergy == "" {
		wantEnergy = "none"
	}
	type coord struct {
		name string
		got  any
		want any
	}
	for _, f := range []coord{
		{"topology", r.Topology, c.Topology.Label()},
		{"grid_size", r.GridSize, c.Topology.gridSize()},
		{"protocol", r.Protocol, c.Protocol},
		{"search_distance", r.SearchDistance, c.SearchDistance},
		{"attacker_r", r.AttackerR, c.Attacker.R},
		{"attacker_h", r.AttackerH, c.Attacker.H},
		{"attacker_m", r.AttackerM, c.Attacker.M},
		{"strategy", r.Strategy, wantStrategy},
		{"attackers", r.Attackers, wantAttackers},
		{"shared_history", r.SharedHistory, c.SharedHistory},
		{"loss_model", r.LossModel, c.LossModel},
		{"collisions", r.Collisions, c.Collisions},
		{"faults", gotFaults, wantFaults},
		{"energy", gotEnergy, wantEnergy},
		{"repeats", r.Repeats, c.Repeats},
		{"base_seed", r.BaseSeed, c.BaseSeed},
	} {
		if f.got != f.want {
			return fmt.Sprintf("%s is %v, this spec's cell has %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// checkCSVHeader verifies rec is the canonical header row.
func checkCSVHeader(rec []string) error {
	if len(rec) != len(csvHeader) {
		return fmt.Errorf("campaign: csv header has %d fields, want %d", len(rec), len(csvHeader))
	}
	for i, h := range csvHeader {
		if rec[i] != h {
			return fmt.Errorf("campaign: csv header mismatch at column %d: %q, want %q", i+1, rec[i], h)
		}
	}
	return nil
}

// ScanCompletedCSV is ScanCompleted for CSV campaign output: the first
// complete line must be the canonical header, every later complete line
// one record. The returned offset covers the header, so a file holding
// only a header resumes by appending records without duplicating it.
func ScanCompletedCSV(r io.Reader) (map[int]bool, int64, error) {
	return scanCells(r, "csv", nil)
}
