package campaign

import (
	"reflect"
	"strings"
	"testing"

	"slpdas/internal/experiment"
	"slpdas/internal/metrics"
)

// derivedColumns are the Row float fields computed from another metric
// instead of declared in the experiment metric table.
var derivedColumns = map[string]bool{"capture_ratio_ci95": true}

// TestMetricTableMatchesRowAndAggregate ties the experiment metric table
// to the two typed records it fills: every declared column names exactly
// one Row float field, every Row float field is declared or derived, and
// every Summary or Proportion field of Aggregate is filled by exactly one
// declaration.
func TestMetricTableMatchesRowAndAggregate(t *testing.T) {
	rowFloats := map[string]int{}
	rt := reflect.TypeOf(Row{})
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() == reflect.Float64 {
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			rowFloats[name]++
		}
	}
	declared := map[string]int{}
	filled := map[string]int{}
	for _, m := range experiment.Metrics() {
		filled[m.Field]++
		if m.Column == "" {
			continue
		}
		declared[m.Column]++
		if n := rowFloats[m.Column]; n != 1 {
			t.Errorf("declared column %q names %d Row float fields, want 1", m.Column, n)
		}
		if derivedColumns[m.Column] {
			t.Errorf("column %q is both declared and derived", m.Column)
		}
	}
	for name := range rowFloats {
		if n := declared[name]; n != 1 && !derivedColumns[name] {
			t.Errorf("Row float column %q is declared %d times and not derived; want exactly one declaration", name, n)
		}
	}
	at := reflect.TypeOf(experiment.Aggregate{})
	for i := 0; i < at.NumField(); i++ {
		f := at.Field(i)
		if f.Type != reflect.TypeOf(metrics.Summary{}) && f.Type != reflect.TypeOf(metrics.Proportion{}) {
			continue
		}
		if n := filled[f.Name]; n != 1 {
			t.Errorf("Aggregate.%s is filled by %d declarations, want 1", f.Name, n)
		}
	}
	if len(metricFields)+len(derivedColumns) != len(rowFloats) {
		t.Errorf("makeRow fills %d float columns from the table and %d derived, Row has %d", len(metricFields), len(derivedColumns), len(rowFloats))
	}
}
