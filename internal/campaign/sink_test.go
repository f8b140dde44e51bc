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
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", back, rows)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"cell\":0}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
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

func TestMultiSinkFansOutAndFails(t *testing.T) {
	a, b := &Memory{}, &Memory{}
	m := Multi{a, b}
	if err := m.Write(Row{Cell: 9}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if len(a.Rows()) != 1 || len(b.Rows()) != 1 {
		t.Errorf("fan-out missed a sink: %d, %d", len(a.Rows()), len(b.Rows()))
	}
	boom := errors.New("disk full")
	m = Multi{failSink{boom}, a}
	if err := m.Write(Row{}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if len(a.Rows()) != 1 {
		t.Errorf("write after failure reached later sink")
	}
}

type failSink struct{ err error }

func (f failSink) Write(Row) error { return f.err }
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
		back, err := ReadJSONL(&w.buf)
		if err != nil {
			t.Fatalf("ReadJSONL: %v", err)
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
	back, err := ReadJSONL(bytes.NewReader(w.buf.Bytes()))
	if err != nil || len(back) != 1 {
		t.Fatalf("after Flush: rows=%d err=%v", len(back), err)
	}
	if err := sink.Write(Row{Cell: 1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	back, err = ReadJSONL(&w.buf)
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
			back, err := ReadJSONL(&buf)
			if err != nil || len(back) != 1 {
				t.Fatalf("ReadJSONL: rows=%d err=%v", len(back), err)
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

// TestCheckpointReportsHighWaterMark: Checkpoint flushes and reports the
// highest cell durable, for the file sinks, Memory and Multi (which takes
// the minimum across members).
func TestCheckpointReportsHighWaterMark(t *testing.T) {
	w := &countingWriter{}
	jsonl := NewJSONL(w)
	if last, err := jsonl.Checkpoint(); err != nil || last != -1 {
		t.Errorf("empty JSONL checkpoint = %d, %v, want -1", last, err)
	}
	for c := 0; c <= 4; c++ {
		if err := jsonl.Write(Row{Cell: c}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	last, err := jsonl.Checkpoint()
	if err != nil || last != 4 {
		t.Fatalf("JSONL checkpoint = %d, %v, want 4", last, err)
	}
	if w.buf.Len() == 0 {
		t.Error("Checkpoint did not flush")
	}
	back, err := ReadJSONL(bytes.NewReader(w.buf.Bytes()))
	if err != nil || len(back) != 5 {
		t.Fatalf("after checkpoint: rows=%d err=%v", len(back), err)
	}

	var csvBuf bytes.Buffer
	cs := NewCSV(&csvBuf)
	if err := cs.Write(Row{Cell: 7}); err != nil {
		t.Fatalf("CSV.Write: %v", err)
	}
	if last, err := cs.Checkpoint(); err != nil || last != 7 {
		t.Errorf("CSV checkpoint = %d, %v, want 7", last, err)
	}
	if csvBuf.Len() == 0 {
		t.Error("CSV Checkpoint did not flush")
	}

	mem := &Memory{}
	mem.Write(Row{Cell: 2})
	m := Multi{jsonl, mem}
	if last, err := m.Checkpoint(); err != nil || last != 2 {
		t.Errorf("Multi checkpoint = %d, %v, want 2 (min across members)", last, err)
	}
	if last, err := (Multi{failSink{errors.New("x")}}).Checkpoint(); err != nil || last != -1 {
		t.Errorf("Multi over non-checkpoint sinks = %d, %v, want -1, nil", last, err)
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
