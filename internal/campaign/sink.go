package campaign

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	"slpdas/internal/experiment"
	"slpdas/internal/topo"
)

// Row is one streamed result record: the cell's full matrix coordinates
// followed by the Aggregate summary fields. The JSON tags are the column
// names and field order is the JSONL and CSV column order; nothing else
// spells either (see indexRow). makeRow fills each float field whose tag
// names a column of the experiment metric table from that table. Values
// are finite (NaNs from empty samples become 0 with the corresponding
// count field showing why, and ±Inf clamps to ±MaxFloat64). Finiteness is enforced at the serialization boundary —
// the JSONL and CSV sinks sanitize every float field — because JSON
// cannot encode NaN or Inf at all.
type Row struct {
	Cell           int    `json:"cell"`
	Topology       string `json:"topology"`
	GridSize       int    `json:"grid_size"` // 0 for non-grid topologies
	Nodes          int    `json:"nodes"`
	Protocol       string `json:"protocol"`
	SearchDistance int    `json:"search_distance"`
	AttackerR      int    `json:"attacker_r"`
	AttackerH      int    `json:"attacker_h"`
	AttackerM      int    `json:"attacker_m"`
	Strategy       string `json:"strategy"`
	Attackers      int    `json:"attackers"`
	SharedHistory  bool   `json:"shared_history"`
	LossModel      string `json:"loss_model"`
	Collisions     bool   `json:"collisions"`
	Repeats        int    `json:"repeats"`
	BaseSeed       uint64 `json:"base_seed"`

	Runs               int     `json:"runs"` // repeats that completed
	Failures           int     `json:"failures"`
	Captures           int     `json:"captures"`
	CaptureRatio       float64 `json:"capture_ratio"`
	CaptureRatioCI95   float64 `json:"capture_ratio_ci95"`
	MeanCapturePeriods float64 `json:"mean_capture_periods"`
	ScheduleValidRatio float64 `json:"schedule_valid_ratio"`
	ControlMessages    float64 `json:"control_messages"`
	ControlBytes       float64 `json:"control_bytes"`
	TotalMessages      float64 `json:"total_messages"`
	ChangedNodes       float64 `json:"changed_nodes"`
	SourceDeliveries   float64 `json:"source_deliveries"`
	DeliveryLatency    float64 `json:"delivery_latency_slots"`

	// Trailing columns added with the fault-injection axis. They sit after
	// every pre-existing field (including the Faults coordinate, which
	// would otherwise live with its fellow coordinates above) so that
	// pre-axis output files differ from regenerated ones only in appended
	// columns. Omitted in old files, Faults decodes as "" — resume
	// verification normalises that to "none".
	Faults            string  `json:"faults"`
	MeanAttackerMoves float64 `json:"mean_attacker_moves"`
	NodesFailed       float64 `json:"nodes_failed"`
	NodesRecovered    float64 `json:"nodes_recovered"`
	RepairPeriods     float64 `json:"repair_periods"`
	DeliveryBefore    float64 `json:"delivery_ratio_before"`
	DeliveryDuring    float64 `json:"delivery_ratio_during"`
	DeliveryAfter     float64 `json:"delivery_ratio_after"`
	PartitionRatio    float64 `json:"partition_ratio"`

	// Trailing columns added with the channel/energy axes, appended after
	// the fault block for the same reason that block sits after the
	// original fields: pre-axis output files differ from regenerated ones
	// only in appended columns. Omitted in old files, Energy decodes as ""
	// — resume verification normalises that to "none".
	Energy           string  `json:"energy"`
	CaptureWins      float64 `json:"mean_capture_wins"`
	EnergyTotal      float64 `json:"energy_total_mj"`
	EnergyMax        float64 `json:"energy_max_mj"`
	EnergyDeaths     float64 `json:"mean_energy_deaths"`
	FirstDeathPeriod float64 `json:"first_death_period"`
	Lifetime         float64 `json:"lifetime_periods"`
}

// fin maps the NaN of an empty sample to 0 and clamps ±Inf to
// ±MaxFloat64 so rows stay JSON-encodable (encoding/json rejects both).
func fin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	}
	return x
}

// csvHeader, floatFields and metricFields index Row once, from its
// struct fields and JSON tags.
var csvHeader, floatFields, metricFields = indexRow()

// indexRow reads Row's column names (its JSON tags, in field order), its
// float64 fields, and, for each float field that names a column of the
// experiment metric table, the table index that fills it.
func indexRow() (names []string, floats []int, fromTable []metricField) {
	byColumn := make(map[string]int)
	for i, m := range experiment.Metrics() {
		if m.Column != "" {
			byColumn[m.Column] = i
		}
	}
	t := reflect.TypeOf(Row{})
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
		if t.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		floats = append(floats, i)
		if m, ok := byColumn[name]; ok {
			fromTable = append(fromTable, metricField{field: i, metric: m})
		}
	}
	return names, floats, fromTable
}

// metricField pairs a Row field with the experiment.Metrics index whose
// cell-level value fills it.
type metricField struct{ field, metric int }

// sanitize applies fin to every float field, enforcing the finiteness
// promise of the Row doc at the sink boundary regardless of where the
// row came from.
func (r Row) sanitize() Row {
	v := reflect.ValueOf(&r).Elem()
	for _, i := range floatFields {
		f := v.Field(i)
		f.SetFloat(fin(f.Float()))
	}
	return r
}

// makeRow renders one cell's aggregate as a row. The coordinates and run
// counts are named here; every float column comes from the metric table,
// except capture_ratio_ci95, which is derived from the capture ratio.
func makeRow(c Cell, g *topo.Graph, agg *experiment.Aggregate) Row {
	r := Row{
		Cell:           c.Index,
		Topology:       c.Topology.Label(),
		GridSize:       c.Topology.gridSize(),
		Nodes:          g.Len(),
		Protocol:       c.Protocol,
		SearchDistance: c.SearchDistance,
		AttackerR:      c.Attacker.R,
		AttackerH:      c.Attacker.H,
		AttackerM:      c.Attacker.M,
		Strategy:       agg.Strategy,
		Attackers:      agg.Attackers,
		SharedHistory:  c.SharedHistory,
		LossModel:      c.LossModel,
		Collisions:     c.Collisions,
		Repeats:        c.Repeats,
		BaseSeed:       c.BaseSeed,
		Faults:         c.Faults,
		Energy:         c.Energy,

		Runs:             agg.CaptureRatio.Trials,
		Failures:         agg.Failures,
		Captures:         agg.CaptureRatio.Successes,
		CaptureRatioCI95: agg.CaptureRatio.CI95(),
	}
	v := reflect.ValueOf(&r).Elem()
	for _, m := range metricFields {
		v.Field(m.field).SetFloat(fin(agg.Metric(m.metric)))
	}
	return r
}

// Sink receives campaign rows as cells complete. Write is always called
// from a single goroutine, in cell-index order. The file-backed sinks
// buffer: rows are only guaranteed durable in the underlying writer after
// Flush or Close. Run calls Flush every Spec.CheckpointEvery rows, which
// is what makes an interrupted campaign resumable from its output file
// (see Spec.ScanResumable); every campaign must Close its sinks. Sinks do
// not own the underlying writer.
type Sink interface {
	Write(Row) error
	Flush() error
	Close() error
}

// JSONL streams rows as one JSON object per line — the resumable,
// diffable format long campaigns should default to. Writes are buffered
// (one row used to cost one syscall, which large sweeps feel); call Flush
// for durability checkpoints and Close when the campaign ends.
type JSONL struct {
	w *bufio.Writer
}

// NewJSONL wraps w in a buffered JSONL sink.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Write implements Sink. The row lands in the buffer; it reaches the
// underlying writer when the buffer fills, on Flush, or on Close.
func (s *JSONL) Write(r Row) error {
	b, err := json.Marshal(r.sanitize())
	if err != nil {
		return err
	}
	if _, err := s.w.Write(b); err != nil {
		return err
	}
	return s.w.WriteByte('\n')
}

// Flush implements Sink, pushing every buffered row to the underlying
// writer.
func (s *JSONL) Flush() error { return s.w.Flush() }

// Close implements Sink, flushing all buffered rows.
func (s *JSONL) Close() error { return s.w.Flush() }

// csvRecord renders a sanitised row as one CSV record, in csvHeader
// order.
func csvRecord(r Row) []string {
	r = r.sanitize()
	v := reflect.ValueOf(&r).Elem()
	rec := make([]string, v.NumField())
	for i := range rec {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			rec[i] = strconv.FormatInt(f.Int(), 10)
		case reflect.Uint64:
			rec[i] = strconv.FormatUint(f.Uint(), 10)
		case reflect.Float64:
			rec[i] = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Bool:
			rec[i] = strconv.FormatBool(f.Bool())
		case reflect.String:
			rec[i] = f.String()
		}
	}
	return rec
}

// parseCSVRecord is csvRecord's inverse: it decodes one record, in
// csvHeader order, back into a Row.
func parseCSVRecord(rec []string) (Row, error) {
	if len(rec) != len(csvHeader) {
		return Row{}, fmt.Errorf("%d fields, want %d", len(rec), len(csvHeader))
	}
	var r Row
	v := reflect.ValueOf(&r).Elem()
	for i, s := range rec {
		var err error
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			var x int64
			x, err = strconv.ParseInt(s, 10, 0)
			f.SetInt(x)
		case reflect.Uint64:
			var x uint64
			x, err = strconv.ParseUint(s, 10, 64)
			f.SetUint(x)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(s, 64)
			f.SetFloat(x)
		case reflect.Bool:
			var x bool
			x, err = strconv.ParseBool(s)
			f.SetBool(x)
		case reflect.String:
			f.SetString(s)
		}
		if err != nil {
			return Row{}, fmt.Errorf("bad %s %q", csvHeader[i], s)
		}
	}
	return r, nil
}

// CSV streams rows as CSV with a header, for spreadsheet/pandas use.
// Buffered like JSONL: rows reach the underlying writer on Flush/Close.
type CSV struct {
	w          *csv.Writer
	wroteFirst bool
}

// NewCSV wraps w in a CSV sink; the header is written with the first row.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: csv.NewWriter(w)}
}

// NewCSVAppend wraps w in a CSV sink that never writes the header — for
// appending to a file that already carries one, as slpsim campaign -resume does.
func NewCSVAppend(w io.Writer) *CSV {
	s := NewCSV(w)
	s.wroteFirst = true
	return s
}

// Write implements Sink, buffering like JSONL.
func (s *CSV) Write(r Row) error {
	if !s.wroteFirst {
		if err := s.w.Write(csvHeader); err != nil {
			return err
		}
		s.wroteFirst = true
	}
	return s.w.Write(csvRecord(r))
}

// Flush implements Sink, pushing every buffered row to the underlying
// writer.
func (s *CSV) Flush() error {
	s.w.Flush()
	return s.w.Error()
}

// Close implements Sink, flushing all buffered rows.
func (s *CSV) Close() error {
	return s.Flush()
}
