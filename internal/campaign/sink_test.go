package campaign

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleRows() []Row {
	return []Row{
		{
			Cell: 0, Topology: "grid-7x7", GridSize: 7, Nodes: 49,
			Protocol: Protectionless, SearchDistance: 1,
			AttackerR: 1, AttackerM: 1, Strategy: "first-heard", Attackers: 1,
			LossModel: "ideal",
			Repeats:   5, BaseSeed: 1, Runs: 5, Captures: 3,
			CaptureRatio: 0.6, CaptureRatioCI95: 0.42,
			MeanCapturePeriods: 12.5, ScheduleValidRatio: 1,
			ControlMessages: 321, ControlBytes: 4567, TotalMessages: 1234,
			SourceDeliveries: 20, DeliveryLatency: 3.25,
		},
		{
			Cell: 1, Topology: "ring-30", Nodes: 30,
			Protocol: SLPAware, SearchDistance: 3,
			AttackerR: 2, AttackerH: 1, AttackerM: 2,
			Strategy: "backtrack", Attackers: 3, SharedHistory: true,
			LossModel: "bernoulli:0.1", Collisions: true,
			Repeats: 5, BaseSeed: 6, Runs: 4, Failures: 1,
			ChangedNodes: 7,
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	rows := sampleRows()
	for _, r := range rows {
		if err := sink.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(rows) {
		t.Errorf("%d lines, want %d", got, len(rows))
	}
	back, _, err := ReadRows(&buf, "jsonl")
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", back, rows)
	}
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for _, r := range sampleRows() {
		if err := sink.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("%d records", len(recs))
	}
	if !reflect.DeepEqual(recs[0], csvHeader) {
		t.Errorf("header = %v", recs[0])
	}
	// Every record must be rectangular and the header must match the
	// number of Row fields serialised.
	for i, rec := range recs {
		if len(rec) != len(csvHeader) {
			t.Errorf("record %d has %d fields, want %d", i, len(rec), len(csvHeader))
		}
	}
	if recs[1][1] != "grid-7x7" || recs[2][9] != "backtrack" || recs[2][13] != "true" {
		t.Errorf("rows = %v", recs[1:])
	}
}

// TestCSVHeaderMatchesRowShape: the CSV header names one column per Row
// field, and for a row whose fields all hold distinct values every CSV
// column carries the value the JSONL sink writes under the same key — so
// two swapped columns, or a header entry out of step with its value, fail.
// The CSV record also parses back to the row it came from.
func TestCSVHeaderMatchesRowShape(t *testing.T) {
	if nFields := reflect.TypeOf(Row{}).NumField(); len(csvHeader) != nFields {
		t.Errorf("csvHeader has %d columns, Row has %d fields", len(csvHeader), nFields)
	}
	var row Row
	v := reflect.ValueOf(&row).Elem()
	bools := 0
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.String:
			f.SetString("s" + strconv.Itoa(i))
		case reflect.Bool:
			f.SetBool(bools%2 == 0) // alternate, so swapped bool columns differ
			bools++
		default:
			t.Fatalf("Row field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	var jsonBuf, csvBuf bytes.Buffer
	js, cs := NewJSONL(&jsonBuf), NewCSV(&csvBuf)
	for _, s := range []Sink{js, cs} {
		if err := s.Write(row); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	dec := json.NewDecoder(&jsonBuf)
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("decode jsonl: %v", err)
	}
	recs, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil || len(recs) != 2 {
		t.Fatalf("csv parse: recs=%d err=%v", len(recs), err)
	}
	if len(recs[1]) != len(obj) {
		t.Errorf("csv record has %d cells, jsonl row %d keys", len(recs[1]), len(obj))
	}
	for i, key := range recs[0] {
		got := recs[1][i]
		switch want := obj[key].(type) {
		case json.Number:
			g, gerr := strconv.ParseFloat(got, 64)
			w, werr := want.Float64()
			if gerr != nil || werr != nil || g != w {
				t.Errorf("column %d %q: csv %q, jsonl %v", i+1, key, got, want)
			}
		case string:
			if got != want {
				t.Errorf("column %d %q: csv %q, jsonl %q", i+1, key, got, want)
			}
		case bool:
			if got != strconv.FormatBool(want) {
				t.Errorf("column %d %q: csv %q, jsonl %v", i+1, key, got, want)
			}
		default:
			t.Errorf("column %d %q: jsonl has no such key (%v)", i+1, key, want)
		}
	}
	if back, err := parseCSVRecord(recs[1]); err != nil || back != row {
		t.Errorf("parseCSVRecord(csvRecord(row)) = %+v, %v; want the row back", back, err)
	}
}

// TestRunFansOutToEverySink: every sink passed to Run sees every row,
// in cell order, and they are the rows Summary returns; a failing sink
// stops the stream before a later sink receives the row.
func TestRunFansOutToEverySink(t *testing.T) {
	spec := Spec{GridSizes: []int{5}, SearchDistances: []int{1, 2}, Repeats: 2}
	a, b := &recordSink{}, &recordSink{}
	sum, err := run(spec, stubRun, a, b)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sum.Rows) != 4 || !reflect.DeepEqual(a.rows, sum.Rows) || !reflect.DeepEqual(b.rows, sum.Rows) {
		t.Errorf("fan-out: sinks got %d and %d rows, summary %d", len(a.rows), len(b.rows), len(sum.Rows))
	}
	boom := errors.New("disk full")
	later := &recordSink{}
	if _, err := run(spec, stubRun, failSink{boom}, later); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if len(later.rows) != 0 {
		t.Errorf("write after failure reached later sink")
	}
}

// recordSink keeps every row written and, at each Flush, the cell of the
// last row written so far (-1 before any).
type recordSink struct {
	rows    []Row
	flushes []int
}

func (s *recordSink) Write(r Row) error {
	s.rows = append(s.rows, r)
	return nil
}

func (s *recordSink) Flush() error {
	last := -1
	if len(s.rows) > 0 {
		last = s.rows[len(s.rows)-1].Cell
	}
	s.flushes = append(s.flushes, last)
	return nil
}

func (s *recordSink) Close() error { return nil }

type failSink struct{ err error }

func (f failSink) Write(Row) error { return f.err }
func (f failSink) Flush() error    { return f.err }
func (f failSink) Close() error    { return f.err }

// countingWriter tallies Write calls to the underlying writer — a proxy
// for syscalls on a file-backed sink.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestSinksBufferUntilCloseAndLoseNothing pins the buffered-sink contract
// both ways: row emission must not hit the underlying writer once per row
// (the pre-buffering behaviour large sweeps paid a syscall per cell for),
// and every row written before Close must survive Close intact.
func TestSinksBufferUntilCloseAndLoseNothing(t *testing.T) {
	const rows = 64
	t.Run("jsonl", func(t *testing.T) {
		w := &countingWriter{}
		sink := NewJSONL(w)
		for i := 0; i < rows; i++ {
			if err := sink.Write(Row{Cell: i, Topology: "grid-7x7"}); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if w.writes >= rows {
			t.Errorf("%d underlying writes for %d rows; sink is not buffering", w.writes, rows)
		}
		back, _, err := ReadRows(&w.buf, "jsonl")
		if err != nil {
			t.Fatalf("ReadRows: %v", err)
		}
		if len(back) != rows {
			t.Errorf("%d rows survived Close, want %d", len(back), rows)
		}
		for i, r := range back {
			if r.Cell != i {
				t.Errorf("row %d has Cell %d", i, r.Cell)
			}
		}
	})
	t.Run("csv", func(t *testing.T) {
		w := &countingWriter{}
		sink := NewCSV(w)
		for i := 0; i < rows; i++ {
			if err := sink.Write(Row{Cell: i}); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if w.writes >= rows {
			t.Errorf("%d underlying writes for %d rows; sink is not buffering", w.writes, rows)
		}
		recs, err := csv.NewReader(&w.buf).ReadAll()
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if len(recs) != rows+1 { // header + rows
			t.Errorf("%d records survived Close, want %d", len(recs), rows+1)
		}
	})
}

// TestJSONLFlushCheckpoints: Flush makes everything written so far durable
// without closing the sink.
func TestJSONLFlushCheckpoints(t *testing.T) {
	w := &countingWriter{}
	sink := NewJSONL(w)
	if err := sink.Write(Row{Cell: 0}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if w.buf.Len() != 0 {
		t.Errorf("row reached the writer before Flush")
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	back, _, err := ReadRows(bytes.NewReader(w.buf.Bytes()), "jsonl")
	if err != nil || len(back) != 1 {
		t.Fatalf("after Flush: rows=%d err=%v", len(back), err)
	}
	if err := sink.Write(Row{Cell: 1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	back, _, err = ReadRows(&w.buf, "jsonl")
	if err != nil || len(back) != 2 {
		t.Fatalf("after Close: rows=%d err=%v", len(back), err)
	}
}

// BenchmarkJSONLWrite measures per-row emission cost through the buffered
// sink against a syscall-per-row unbuffered baseline (each Write followed
// by a Flush, the pre-buffering behaviour).
func BenchmarkJSONLWrite(b *testing.B) {
	row := sampleRows()[0]
	b.Run("buffered", func(b *testing.B) {
		f, err := os.CreateTemp(b.TempDir(), "rows-*.jsonl")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		sink := NewJSONL(f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sink.Write(row); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("flush-per-row", func(b *testing.B) {
		f, err := os.CreateTemp(b.TempDir(), "rows-*.jsonl")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		sink := NewJSONL(f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sink.Write(row); err != nil {
				b.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestRunPropagatesSinkFailure(t *testing.T) {
	boom := errors.New("sink broke")
	_, err := run(Spec{GridSizes: []int{5}, Repeats: 2}, stubRun, failSink{boom})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want sink error", err)
	}
}

// TestSinksSanitizeNonFiniteFloats pins the Row finiteness promise at the
// serialization boundary: a row carrying NaN or ±Inf in every float field
// must encode through both file sinks (encoding/json rejects non-finite
// values outright), with NaN → 0 and ±Inf clamped to ±MaxFloat64.
func TestSinksSanitizeNonFiniteFloats(t *testing.T) {
	mkRow := func(x float64) Row {
		r := Row{Cell: 1, Topology: "grid-5x5"}
		v := reflect.ValueOf(&r).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 {
				f.SetFloat(x)
			}
		}
		return r
	}
	checkFloats := func(t *testing.T, r Row, want float64) {
		t.Helper()
		v := reflect.ValueOf(r)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 && f.Float() != want {
				t.Errorf("%s = %v, want %v", v.Type().Field(i).Name, f.Float(), want)
			}
		}
	}
	for name, tc := range map[string]struct{ in, want float64 }{
		"nan":  {math.NaN(), 0},
		"+inf": {math.Inf(1), math.MaxFloat64},
		"-inf": {math.Inf(-1), -math.MaxFloat64},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			sink := NewJSONL(&buf)
			if err := sink.Write(mkRow(tc.in)); err != nil {
				t.Fatalf("JSONL.Write: %v", err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			back, _, err := ReadRows(&buf, "jsonl")
			if err != nil || len(back) != 1 {
				t.Fatalf("ReadRows: rows=%d err=%v", len(back), err)
			}
			checkFloats(t, back[0], tc.want)

			var csvBuf bytes.Buffer
			cs := NewCSV(&csvBuf)
			if err := cs.Write(mkRow(tc.in)); err != nil {
				t.Fatalf("CSV.Write: %v", err)
			}
			if err := cs.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			recs, err := csv.NewReader(&csvBuf).ReadAll()
			if err != nil || len(recs) != 2 {
				t.Fatalf("csv parse: recs=%d err=%v", len(recs), err)
			}
			for i, cellStr := range recs[1] {
				if v, err := strconv.ParseFloat(cellStr, 64); err == nil {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("csv column %s is non-finite: %q", csvHeader[i], cellStr)
					}
				}
			}
			want := strconv.FormatFloat(tc.want, 'g', -1, 64)
			v := reflect.ValueOf(Row{})
			for i, cellStr := range recs[1] {
				if v.Field(i).Kind() == reflect.Float64 && cellStr != want {
					t.Errorf("csv column %s = %q, want %q", csvHeader[i], cellStr, want)
				}
			}
		})
	}
}

// TestCheckpointReportsHighWaterMark: Flush is the checkpoint. After it,
// ReadRows on the underlying writer reports every row written so far and
// an offset at the end of the flushed bytes — the high-water mark a
// resume truncates to — for both file sinks; a row written after the
// last Flush stays buffered and invisible.
func TestCheckpointReportsHighWaterMark(t *testing.T) {
	for _, format := range []string{"jsonl", "csv"} {
		var buf bytes.Buffer
		var sink Sink = NewJSONL(&buf)
		if format == "csv" {
			sink = NewCSV(&buf)
		}
		for c := 0; c <= 4; c++ {
			if err := sink.Write(Row{Cell: c}); err != nil {
				t.Fatalf("%s Write: %v", format, err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatalf("%s Flush: %v", format, err)
		}
		if err := sink.Write(Row{Cell: 5}); err != nil {
			t.Fatalf("%s Write: %v", format, err)
		}
		back, valid, err := ReadRows(bytes.NewReader(buf.Bytes()), format)
		if err != nil || len(back) != 5 || back[4].Cell != 4 {
			t.Fatalf("%s after Flush: rows=%+v err=%v, want cells 0-4", format, back, err)
		}
		if valid != int64(buf.Len()) {
			t.Errorf("%s: offset %d, want %d (all flushed bytes)", format, valid, buf.Len())
		}
	}
}

// TestCSVAppendOmitsHeader: the append-mode CSV sink never writes the
// header — resuming into a file that already has one must not duplicate
// it.
func TestCSVAppendOmitsHeader(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVAppend(&buf)
	if err := sink.Write(Row{Cell: 3}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != 1 || recs[0][0] != "3" {
		t.Errorf("records = %v, want just cell 3's record", recs)
	}
}
