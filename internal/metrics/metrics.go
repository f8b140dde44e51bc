// Package metrics provides the statistical plumbing for the experiment
// harness: summary statistics with confidence intervals, binomial
// proportions (capture ratio), and aligned-table / CSV rendering of
// results in the shape the paper reports them.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Summary holds the usual moments of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize computes sample statistics (std uses the n-1 estimator).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Stream is a bounded-memory streaming accumulator producing the same
// Summary as Summarize without retaining the sample. The mean is kept as a
// plain running sum divided at the end — the identical operations in the
// identical order as Summarize, so Mean (along with N, Min and Max) is
// byte-for-byte equal to the batch result for the same values in the same
// order. Only Std differs in representation: it comes from Welford's
// single-pass M2 recurrence instead of the two-pass corrected sum, which
// agrees with the batch estimator to within a ULP on the adversarial
// inputs pinned in stream_test.go. No rendered output reads Std, so
// the experiment harness folds every per-repeat metric through this,
// holding O(1) state per series instead of one float per repeat.
type Stream struct {
	n        int
	sum      float64
	min, max float64
	mean, m2 float64 // Welford state, used only for Std
}

// Add folds one observation into the accumulator.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.sum += x
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Summary finalises the accumulated statistics.
func (s *Stream) Summary() Summary {
	out := Summary{N: s.n}
	if s.n == 0 {
		return out
	}
	out.Min, out.Max = s.min, s.max
	out.Mean = s.sum / float64(s.n)
	if s.n > 1 {
		out.Std = math.Sqrt(s.m2 / float64(s.n-1))
	}
	return out
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// Proportion is a binomial estimate: successes out of trials.
type Proportion struct {
	Successes int
	Trials    int
}

// Value returns the point estimate in [0, 1], or NaN with no trials.
func (p Proportion) Value() float64 {
	if p.Trials == 0 {
		return math.NaN()
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Percent returns the point estimate in percent.
func (p Proportion) Percent() float64 { return p.Value() * 100 }

// CI95 returns the half-width of the Wald 95% interval (in proportion
// units), adequate at the repetition counts the harness uses.
func (p Proportion) CI95() float64 {
	if p.Trials == 0 {
		return 0
	}
	v := p.Value()
	return 1.96 * math.Sqrt(v*(1-v)/float64(p.Trials))
}

// String renders "12.0% (12/100)".
func (p Proportion) String() string {
	return fmt.Sprintf("%.1f%% (%d/%d)", p.Percent(), p.Successes, p.Trials)
}

// Table accumulates rows and renders them column-aligned or as CSV.
type Table struct {
	headers  []string
	rows     [][]string
	arityErr error
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends one row; missing cells render empty. Extra cells are an
// error surfaced at render time to keep call sites simple: String appends
// the error as a trailing line and WriteCSV returns it instead of
// silently truncating the row.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) && t.arityErr == nil {
		t.arityErr = fmt.Errorf("metrics: row %d has %d cells, table has %d columns", len(t.rows), len(cells), len(t.headers))
	}
	t.rows = append(t.rows, cells)
}

// Err returns the first row-arity violation, if any.
func (t *Table) Err() error { return t.arityErr }

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	if t.arityErr != nil {
		fmt.Fprintf(&b, "error: %v\n", t.arityErr)
	}
	return b.String()
}

// WriteCSV emits the table as CSV. A row with more cells than the table
// has columns fails the whole render rather than truncating data.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.arityErr != nil {
		return t.arityErr
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.headers); err != nil {
		return fmt.Errorf("metrics: write csv header: %w", err)
	}
	for _, row := range t.rows {
		padded := make([]string, len(t.headers))
		copy(padded, row)
		if err := cw.Write(padded); err != nil {
			return fmt.Errorf("metrics: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
