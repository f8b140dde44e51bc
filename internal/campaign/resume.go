package campaign

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the read side of the sink contract: recovering the
// completed rows of an interrupted campaign from its (possibly torn)
// output file, so a later run can Skip them and append only what is
// missing. A row counts as complete only when its line is
// newline-terminated AND parses — a kill mid-write leaves a trailing
// fragment, and a flush that happened to end exactly on a line boundary
// leaves none; both resume cleanly. The byte offset just past the last
// complete line is reported so callers can truncate the torn tail before
// appending (slpsim campaign -resume does exactly that).

// ReadRows parses the complete rows of a campaign output in the given
// format ("jsonl" or "csv", "" = jsonl), tolerating a torn final line
// (which is simply not a row yet). It returns the rows and the byte
// offset just past the last complete line — the length to truncate the
// file to before appending more rows. A malformed line that IS
// newline-terminated is real corruption and an error. A CSV file's first
// line must be the canonical header; the offset covers it, so a
// header-only file resumes by appending records without duplicating it.
func ReadRows(r io.Reader, format string) ([]Row, int64, error) {
	var rows []Row
	valid, err := scanRows(r, format, func(_ int, row Row) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, valid, err
	}
	return rows, valid, nil
}

// scanRows is ReadRows as a stream: it calls fn with each complete row
// and its 1-based line number, and returns the byte offset just past the
// last complete line. Line-based CSV scanning is sound because no Row
// field ever serializes with an embedded newline.
func scanRows(r io.Reader, format string, fn func(line int, row Row) error) (int64, error) {
	if format == "" {
		format = "jsonl"
	}
	if format != "jsonl" && format != "csv" {
		return 0, fmt.Errorf("campaign: unknown format %q (want jsonl or csv)", format)
	}
	br := bufio.NewReader(r)
	var valid int64
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return valid, nil // an unterminated tail is torn, not a row
		}
		if err != nil {
			return valid, err
		}
		header := format == "csv" && n == 1
		var row Row
		if format == "jsonl" {
			err = json.Unmarshal(line, &row)
		} else if rec, rerr := csv.NewReader(bytes.NewReader(line)).Read(); rerr != nil {
			err = rerr
		} else if header {
			err = checkCSVHeader(rec)
		} else {
			row, err = parseCSVRecord(rec)
		}
		if err != nil {
			return valid, fmt.Errorf("campaign: %s line %d: %w", format, n, err)
		}
		if !header {
			if err := fn(n, row); err != nil {
				return valid, err
			}
		}
		valid += int64(len(line))
	}
}

// ScanResumable is the front door for resuming: it reads the complete
// rows of a partial output file in the given format like ReadRows,
// verifies that every row carries exactly the coordinates, seed layout
// and repeat count this Spec assigns its cell index, in the strictly
// increasing cell order Run writes, and returns the set of completed
// cells — the Spec.Skip of the resuming run — with the offset to
// truncate to. A resume attempted with a mistyped seed, a changed axis
// flag, the wrong file or a file with duplicated or reordered rows fails
// here with the first problem, instead of silently producing a file that
// mixes two campaigns or that slpsim merge would reject. Rows are checked as
// they stream, so memory is one bit per cell, not one Row.
func (s Spec) ScanResumable(r io.Reader, format string) (map[int]bool, int64, error) {
	cells, err := s.Expand()
	if err != nil {
		return nil, 0, err
	}
	done := make(map[int]bool)
	prev := -1
	valid, err := scanRows(r, format, func(n int, row Row) error {
		if row.Cell < 0 || row.Cell >= len(cells) {
			return fmt.Errorf("campaign: resume: line %d: cell %d outside this spec's %d-cell matrix — was the file produced with different flags?", n, row.Cell, len(cells))
		}
		if row.Cell <= prev {
			return fmt.Errorf("campaign: resume: line %d: cell %d after cell %d — campaign outputs hold each cell once, in increasing order; is the file corrupt?", n, row.Cell, prev)
		}
		if sh := s.Shard; sh.Count > 1 && row.Cell%sh.Count != sh.Index {
			// A recovered cell outside this spec's shard slice means the
			// file belongs to a different shard; appending this shard's
			// cells after it would corrupt both.
			return fmt.Errorf("campaign: resume: line %d: cell %d is not in shard %d/%d — wrong -shard or wrong file?", n, row.Cell, sh.Index, sh.Count)
		}
		if msg := cellRowMismatch(cells[row.Cell], row); msg != "" {
			return fmt.Errorf("campaign: resume: line %d (cell %d): %s — the file belongs to a different campaign", n, row.Cell, msg)
		}
		done[row.Cell] = true
		prev = row.Cell
		return nil
	})
	if err != nil {
		return nil, valid, err
	}
	return done, valid, nil
}

// cellRowMismatch reports how row r's coordinate fields differ from what
// cell c would emit, or "" when they all match. Only coordinates are
// compared — the measured metrics legitimately vary with nothing but the
// seed, which the BaseSeed check pins. Expand resolves a cell's strategy
// and team size as its runs do, so they compare as they stand.
func cellRowMismatch(c Cell, r Row) string {
	// Files written before the fault axis existed carry no faults field;
	// those campaigns were all fault-free, so "" reads as the "none" that
	// Expand writes into every fault-free cell.
	gotFaults := r.Faults
	if gotFaults == "" {
		gotFaults = "none"
	}
	// Same story for files written before the energy axis existed.
	gotEnergy := r.Energy
	if gotEnergy == "" {
		gotEnergy = "none"
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
		{"strategy", r.Strategy, c.Strategy},
		{"attackers", r.Attackers, c.AttackerCount},
		{"shared_history", r.SharedHistory, c.SharedHistory},
		{"loss_model", r.LossModel, c.LossModel},
		{"collisions", r.Collisions, c.Collisions},
		{"faults", gotFaults, c.Faults},
		{"energy", gotEnergy, c.Energy},
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
		return fmt.Errorf("header has %d fields, want %d", len(rec), len(csvHeader))
	}
	for i, h := range csvHeader {
		if rec[i] != h {
			return fmt.Errorf("header column %d is %q, want %q", i+1, rec[i], h)
		}
	}
	return nil
}
