package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"slpdas/internal/protocol"
)

// renderJSONL writes rows through a JSONL sink and returns the bytes.
func renderJSONL(t *testing.T, rows []Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, r := range rows {
		if err := sink.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// renderCSV writes rows through a CSV sink and returns the bytes.
func renderCSV(t *testing.T, rows []Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for _, r := range rows {
		if err := sink.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// render writes rows in the given format.
func render(t *testing.T, format string, rows []Row) []byte {
	t.Helper()
	if format == "csv" {
		return renderCSV(t, rows)
	}
	return renderJSONL(t, rows)
}

// TestLoadRowsToleratesTornTail: ReadRows, in both formats, counts only
// newline-terminated lines as rows, and the offset sits exactly past the
// last of them.
func TestLoadRowsToleratesTornTail(t *testing.T) {
	rows := []Row{{Cell: 0, Topology: "grid-7x7"}, {Cell: 2}, {Cell: 5}}
	for _, format := range []string{"jsonl", "csv"} {
		t.Run(format, func(t *testing.T) {
			full := render(t, format, rows)
			lines := bytes.SplitAfter(full, []byte("\n"))
			// Complete lines before the final row: the header (CSV)
			// plus every row but the last.
			lastStart := len(full) - len(lines[len(lines)-2])
			// Cut mid-way through the final line: the torn fragment must
			// be invisible.
			back, valid := readRows(t, full[:lastStart+4], format)
			if len(back) != 2 || back[1].Cell != 2 || valid != int64(lastStart) {
				t.Errorf("torn: rows=%+v valid=%d, want cells 0, 2 and valid %d", back, valid, lastStart)
			}
			// A complete final row WITHOUT a trailing newline is torn
			// too, so truncate-at-valid plus re-running the cell always
			// reproduces the uninterrupted bytes.
			back, valid = readRows(t, full[:len(full)-1], format)
			if len(back) != 2 || valid != int64(lastStart) {
				t.Errorf("unterminated final row counted as complete: rows=%d valid=%d", len(back), valid)
			}
			// The intact file round-trips whole.
			back, valid = readRows(t, full, format)
			if !reflect.DeepEqual(back, rows) || valid != int64(len(full)) {
				t.Errorf("full file: rows=%+v valid=%d, want %d bytes", back, valid, len(full))
			}
		})
	}
}

// TestScanCompleted: the rows ReadRows returns name exactly the completed
// cells of a sparse file, whatever follows the last newline, and an empty
// input completes nothing at offset 0.
func TestScanCompleted(t *testing.T) {
	rows := []Row{{Cell: 0}, {Cell: 2}, {Cell: 5}}
	for _, format := range []string{"jsonl", "csv"} {
		t.Run(format, func(t *testing.T) {
			full := render(t, format, rows)
			torn := string(render(t, format, []Row{{Cell: 7, Topology: "grid-7x7"}}))
			if format == "csv" {
				torn = torn[strings.IndexByte(torn, '\n')+1:]
			}
			back, valid := readRows(t, append(full, torn[:len(torn)/2]...), format)
			cells := map[int]bool{}
			for _, r := range back {
				cells[r.Cell] = true
			}
			if len(cells) != 3 || !cells[0] || !cells[2] || !cells[5] || cells[7] {
				t.Errorf("cells = %v", cells)
			}
			if valid != int64(len(full)) {
				t.Errorf("valid = %d, want %d", valid, len(full))
			}
			if back, valid = readRows(t, nil, format); len(back) != 0 || valid != 0 {
				t.Errorf("empty input: rows=%d valid=%d", len(back), valid)
			}
		})
	}
}

// readRows is ReadRows over in, failing the test on an error.
func readRows(t *testing.T, in []byte, format string) ([]Row, int64) {
	t.Helper()
	back, valid, err := ReadRows(bytes.NewReader(in), format)
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	return back, valid
}

// rejectsAt checks that ReadRows fails on each case with an error naming
// the case's line: a malformed line that IS newline-terminated is not a
// torn tail and must never be silently skipped.
func rejectsAt(t *testing.T, cases map[string]struct{ format, in, line string }) {
	t.Helper()
	for name, tc := range cases {
		_, _, err := ReadRows(strings.NewReader(tc.in), tc.format)
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: err = %v, want an error at %s", name, err, tc.line)
		}
	}
}

// TestReadJSONLRejectsGarbage: a JSONL line that does not decode, or is
// blank, is an error.
func TestReadJSONLRejectsGarbage(t *testing.T) {
	rejectsAt(t, map[string]struct{ format, in, line string }{
		"garbage":    {"jsonl", "{\"cell\":0}\nnot json\n", "line 2"},
		"blank line": {"jsonl", "{\"cell\":0}\n\n", "line 2"},
	})
}

// TestLoadRowsRejectsMidFileCorruption: a bad line followed by good ones
// is an error in both formats, not a row to skip.
func TestLoadRowsRejectsMidFileCorruption(t *testing.T) {
	header := strings.Join(csvHeader, ",") + "\n"
	record := string(renderCSV(t, []Row{{Cell: 1}})[len(header):])
	rejectsAt(t, map[string]struct{ format, in, line string }{
		"jsonl": {"jsonl", "{\"cell\":0}\ngarbage\n{\"cell\":2}\n", "line 2"},
		"csv":   {"csv", header + "garbage\n" + record, "line 2"},
	})
}

// TestReadRowsRejectsGarbage: a CSV file with a foreign header or a
// malformed record is an error naming the line, and so is an unknown
// format.
func TestReadRowsRejectsGarbage(t *testing.T) {
	header := strings.Join(csvHeader, ",") + "\n"
	record := string(renderCSV(t, []Row{{Cell: 1}})[len(header):])
	rejectsAt(t, map[string]struct{ format, in, line string }{
		"csv wrong header":       {"csv", "a,b,c\n", "line 1"},
		"csv short record":       {"csv", header + "1,2\n", "line 2"},
		"csv bad integer":        {"csv", header + "x" + record[1:], "line 2"},
		"csv unterminated quote": {"csv", header + record + "\"1,\n", "line 3"},
	})
	if _, _, err := ReadRows(strings.NewReader(""), "parquet"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestReadRowsCSVHeaderOnly: a header-only file reports no rows but an
// offset past the header, so a resume appends records without
// duplicating it.
func TestReadRowsCSVHeaderOnly(t *testing.T) {
	header := strings.Join(csvHeader, ",") + "\n"
	rows, valid, err := ReadRows(strings.NewReader(header), "csv")
	if err != nil || len(rows) != 0 || valid != int64(len(header)) {
		t.Errorf("header-only: rows=%v valid=%d err=%v", rows, valid, err)
	}
}

// TestSkipKeepsSeedsAndRows: skipped cells keep their place in the
// matrix — the remaining cells run on exactly the seeds and emit exactly
// the bytes of the corresponding cells of a full run.
func TestSkipKeepsSeedsAndRows(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 3}

	full, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	s := spec
	s.Skip = map[int]bool{0: true, 2: true}
	var progress []int
	s.Progress = func(done, total int, row Row) {
		if total != 4 {
			t.Errorf("total = %d, want 4 (the full matrix)", total)
		}
		progress = append(progress, done)
	}
	sum, err := run(s, stubRun)
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if sum.Cells != 4 || sum.Skipped != 2 {
		t.Errorf("Cells=%d Skipped=%d, want 4/2", sum.Cells, sum.Skipped)
	}
	rows := sum.Rows
	if len(rows) != 2 || rows[0].Cell != 1 || rows[1].Cell != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	fullRows := full.Rows
	for i, r := range rows {
		if r != fullRows[r.Cell] {
			t.Errorf("row %d differs from full run's cell %d:\n%+v\nvs\n%+v", i, r.Cell, r, fullRows[r.Cell])
		}
	}
	// Progress reports matrix positions, not a compacted count.
	if len(progress) != 2 || progress[0] != 2 || progress[1] != 4 {
		t.Errorf("progress = %v, want [2 4]", progress)
	}
}

// TestSkipComposesWithShard: a resumed shard skips both the cells
// outside its slice and the ones its file already holds.
func TestSkipComposesWithShard(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2}
	spec.Shard = Shard{Index: 1, Count: 2}
	spec.Skip = map[int]bool{3: true}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rows := sum.Rows; len(rows) != 1 || rows[0].Cell != 1 {
		t.Errorf("rows = %+v, want just cell 1", rows)
	}
	if sum.Skipped != 3 {
		t.Errorf("Skipped = %d, want 3", sum.Skipped)
	}
}

func TestAllCellsSkipped(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Repeats: 2, Skip: map[int]bool{0: true, 1: true}}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.Cells != 2 || sum.Skipped != 2 || len(sum.Rows) != 0 {
		t.Errorf("sum = %+v", sum)
	}
}

// TestShardPartition: stride shards tile the matrix — disjoint, complete,
// and each emitting the same bytes the full run emits for those cells.
func TestShardPartition(t *testing.T) {
	spec := Spec{GridSizes: []int{5, 7}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2}
	full, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	fullRows := full.Rows

	const n = 3
	seen := make(map[int]Row)
	for i := 0; i < n; i++ {
		s := spec
		s.Shard = Shard{Index: i, Count: n}
		sum, err := run(s, stubRun)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if sum.Cells != len(fullRows) {
			t.Errorf("shard %d Cells = %d, want %d", i, sum.Cells, len(fullRows))
		}
		for _, r := range sum.Rows {
			if r.Cell%n != i {
				t.Errorf("shard %d emitted cell %d (stride violation)", i, r.Cell)
			}
			if _, dup := seen[r.Cell]; dup {
				t.Errorf("cell %d emitted by two shards", r.Cell)
			}
			seen[r.Cell] = r
		}
	}
	if len(seen) != len(fullRows) {
		t.Fatalf("%d cells across shards, want %d", len(seen), len(fullRows))
	}
	for c, r := range seen {
		if r != fullRows[c] {
			t.Errorf("cell %d differs between sharded and full run", c)
		}
	}
}

func TestShardValidation(t *testing.T) {
	for name, sh := range map[string]Shard{
		"negative count":         {Index: 0, Count: -1},
		"index out of range":     {Index: 3, Count: 3},
		"negative index":         {Index: -1, Count: 2},
		"index 1 of count 1":     {Index: 1, Count: 1},
		"nonzero index, count 0": {Index: 2, Count: 0},
	} {
		if _, err := run(Spec{GridSizes: []int{5}, Repeats: 1, Shard: sh}, stubRun); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Count 1, index 0 is a degenerate but valid "everything" shard.
	sum, err := run(Spec{GridSizes: []int{5}, Repeats: 1, Shard: Shard{Index: 0, Count: 1}}, stubRun)
	if err != nil {
		t.Fatalf("1-shard run: %v", err)
	}
	if len(sum.Rows) != 2 {
		t.Errorf("1-shard run emitted %d rows, want 2", len(sum.Rows))
	}
}

// TestCheckpointEvery: Run flushes every sink every N emitted rows, each
// flush landing right after the row that completes the batch.
func TestCheckpointEvery(t *testing.T) {
	spec := Spec{GridSizes: []int{5, 7, 9}, SearchDistances: []int{1}, Repeats: 2, CheckpointEvery: 2}
	sink := &recordSink{}
	if _, err := run(spec, stubRun, sink); err != nil {
		t.Fatalf("run: %v", err)
	}
	// 6 cells, flushed after rows 2, 4, 6 → last cells 1, 3, 5.
	if want := []int{1, 3, 5}; !reflect.DeepEqual(sink.flushes, want) {
		t.Errorf("flushes after cells %v, want %v", sink.flushes, want)
	}
}

func TestRunPropagatesCheckpointFailure(t *testing.T) {
	sink := &failingFlushSink{}
	_, err := run(Spec{GridSizes: []int{5}, Repeats: 1, CheckpointEvery: 1}, stubRun, sink)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("err = %v, want checkpoint failure", err)
	}
	if len(sink.rows) != 1 {
		t.Errorf("%d rows written after the failed flush, want the stream to stop at 1", len(sink.rows))
	}
}

type failingFlushSink struct{ recordSink }

func (s *failingFlushSink) Flush() error { return errors.New("forced flush failure") }

// TestResumeAppendCompletesFile is the engine-level kill-and-resume
// round trip: render a full campaign to JSONL, tear the file mid-row,
// then resume by scanning completed cells, truncating to the valid
// offset and appending a Skip run — the result must be byte-identical to
// the uninterrupted output.
func TestResumeAppendCompletesFile(t *testing.T) {
	spec := Spec{GridSizes: []int{5, 7}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 3, BaseSeed: 11}

	var fullBuf bytes.Buffer
	sink := NewJSONL(&fullBuf)
	if _, err := run(spec, stubRun, sink); err != nil {
		t.Fatalf("full run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full := fullBuf.Bytes()

	// Tear at several points: mid first row, mid-file, mid last row.
	for _, cut := range []int{10, len(full) / 2, len(full) - 3} {
		completed, valid, err := spec.ScanResumable(bytes.NewReader(full[:cut]), "jsonl")
		if err != nil {
			t.Fatalf("cut %d: ScanResumable: %v", cut, err)
		}
		resumed := bytes.NewBuffer(append([]byte(nil), full[:valid]...))
		s := spec
		s.Skip = completed
		appendSink := NewJSONL(resumed)
		if _, err := run(s, stubRun, appendSink); err != nil {
			t.Fatalf("cut %d: resume run: %v", cut, err)
		}
		if err := appendSink.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		if !bytes.Equal(resumed.Bytes(), full) {
			t.Errorf("cut %d: resumed file differs from uninterrupted run:\n%s\nvs\n%s", cut, resumed.Bytes(), full)
		}
	}
}

// TestScanResumableRejectsForeignFile: resuming must refuse an output
// file whose rows do not belong to the spec being re-run — a mistyped
// seed, a changed axis, a shrunken matrix or plain garbage — instead of
// silently mixing two campaigns in one file.
func TestScanResumableRejectsForeignFile(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2, BaseSeed: 3}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	full := renderJSONL(t, sum.Rows)

	// The file's own spec accepts it, torn or not.
	completed, valid, err := spec.ScanResumable(bytes.NewReader(full[:len(full)-4]), "jsonl")
	if err != nil {
		t.Fatalf("ScanResumable: %v", err)
	}
	if len(completed) != 3 || valid == int64(len(full)) {
		t.Errorf("completed=%v valid=%d", completed, valid)
	}

	for name, other := range map[string]func(*Spec){
		"different seed":    func(s *Spec) { s.BaseSeed = 99 },
		"different repeats": func(s *Spec) { s.Repeats = 5 },
		"different sd axis": func(s *Spec) { s.SearchDistances = []int{2, 1} },
		"shrunken matrix":   func(s *Spec) { s.Protocols = []string{protocol.NameProtectionless}; s.SearchDistances = []int{1} },
	} {
		s := spec
		other(&s)
		if _, _, err := s.ScanResumable(bytes.NewReader(full), "jsonl"); err == nil {
			t.Errorf("%s: foreign file accepted", name)
		}
	}
	if _, _, err := spec.ScanResumable(strings.NewReader("{}\n"), "jsonl"); err == nil {
		t.Error("coordinate-free garbage row accepted")
	}
	if _, _, err := spec.ScanResumable(nil, "parquet"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestScanResumableCSV: the CSV path recovers cells, verifies
// coordinates, and tolerates a torn final record.
func TestScanResumableCSV(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2, BaseSeed: 3}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	full := renderCSV(t, sum.Rows)

	completed, valid, err := spec.ScanResumable(bytes.NewReader(full[:len(full)-4]), "csv")
	if err != nil {
		t.Fatalf("ScanResumable(csv): %v", err)
	}
	if len(completed) != 3 || !completed[0] || !completed[1] || !completed[2] {
		t.Errorf("completed = %v", completed)
	}
	if valid >= int64(len(full)) {
		t.Errorf("valid = %d, want < %d (torn final record)", valid, len(full))
	}
	foreign := spec
	foreign.BaseSeed = 99
	if _, _, err := foreign.ScanResumable(bytes.NewReader(full), "csv"); err == nil {
		t.Error("csv file from a different seed accepted")
	}
}

// TestScanResumableAcceptsOwnNormalizedDefaults: rows carry the resolved
// attacker coordinates (team size 0 → 1, empty strategy → first-heard),
// so a spec written with the un-normalized zero values must still accept
// the file it produced.
func TestScanResumableAcceptsOwnNormalizedDefaults(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless},
		AttackerCounts: []int{0}, Strategies: []string{""}, Repeats: 2, BaseSeed: 3}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	full := renderJSONL(t, sum.Rows)
	completed, _, err := spec.ScanResumable(bytes.NewReader(full), "jsonl")
	if err != nil {
		t.Fatalf("spec refused its own output: %v", err)
	}
	if len(completed) != 1 {
		t.Errorf("completed = %v", completed)
	}
}

// TestScanResumableEnforcesShard: resuming shard i's output with a
// different -shard must be refused — appending the wrong shard's cells
// would corrupt both files.
func TestScanResumableEnforcesShard(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2, BaseSeed: 3}
	s0 := spec
	s0.Shard = Shard{Index: 0, Count: 3}
	sum, err := run(s0, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	full := renderJSONL(t, sum.Rows) // cells 0 and 3

	if _, _, err := s0.ScanResumable(bytes.NewReader(full), "jsonl"); err != nil {
		t.Fatalf("own shard refused: %v", err)
	}
	s1 := spec
	s1.Shard = Shard{Index: 1, Count: 3}
	if _, _, err := s1.ScanResumable(bytes.NewReader(full), "jsonl"); err == nil {
		t.Error("shard 0's file accepted for a shard-1 resume")
	}
	if _, _, err := spec.ScanResumable(bytes.NewReader(full), "jsonl"); err != nil {
		t.Errorf("unsharded resume of a shard file refused: %v", err)
	}
}

// TestScanResumableRejectsDisorderedRows: Run writes each cell once, in
// increasing order, so a file that repeats or reorders cells was not
// written by one run of the spec. Resuming it would leave a file that
// slpsim merge rejects; ScanResumable must refuse it, naming the line and
// both cells.
func TestScanResumableRejectsDisorderedRows(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, Protocols: []string{protocol.NameProtectionless, protocol.AliasSLP}, SearchDistances: []int{1, 2}, Repeats: 2, BaseSeed: 3}
	sum, err := run(spec, stubRun)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rows := sum.Rows
	for _, format := range []string{"jsonl", "csv"} {
		for name, tc := range map[string]struct {
			rows []Row
			want string
		}{
			"duplicated first row": {[]Row{rows[0], rows[0], rows[1]}, "cell 0 after cell 0"},
			"swapped rows":         {[]Row{rows[2], rows[0], rows[1]}, "cell 0 after cell 2"},
		} {
			line := 2 // the second row, after the CSV header for csv
			if format == "csv" {
				line = 3
			}
			in := render(t, format, tc.rows)
			_, _, err := spec.ScanResumable(bytes.NewReader(in), format)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", line)) {
				t.Errorf("%s %s: err = %v, want line %d and %q", format, name, err, line, tc.want)
			}
		}
	}
}

// FuzzReadRows: the resume reader parses files from outside the program,
// so on any input, in either format, it must not panic, and when it
// accepts the input its offset must be a line boundary inside it from
// which reading back yields the same rows and offset — the invariant a
// resume relies on when it truncates the file there and appends.
func FuzzReadRows(f *testing.F) {
	for _, name := range []string{"jsonl", "csv"} {
		golden, err := os.ReadFile("../../testdata/campaign_columns." + name + ".golden")
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(golden, []byte("\n"))
		f.Add(bytes.Join(lines[:2], nil), name == "csv")
		f.Add(append(bytes.Join(lines[:2], nil), lines[2][:9]...), name == "csv")
	}
	f.Fuzz(func(t *testing.T, in []byte, asCSV bool) {
		format := "jsonl"
		if asCSV {
			format = "csv"
		}
		rows, offset, err := ReadRows(bytes.NewReader(in), format)
		if err != nil {
			return
		}
		if offset < 0 || offset > int64(len(in)) {
			t.Fatalf("offset %d outside the %d-byte input", offset, len(in))
		}
		if offset > 0 && in[offset-1] != '\n' {
			t.Fatalf("offset %d does not follow a newline", offset)
		}
		again, offset2, err := ReadRows(bytes.NewReader(in[:offset]), format)
		if err != nil {
			t.Fatalf("the accepted prefix fails to read back: %v", err)
		}
		// Compare printed forms: a CSV field may legitimately parse to
		// NaN, which never equals itself.
		if offset2 != offset || fmt.Sprint(again) != fmt.Sprint(rows) {
			t.Fatalf("prefix read back %d rows to offset %d, want %d rows to %d", len(again), offset2, len(rows), offset)
		}
	})
}
