package experiment

import (
	"fmt"
	"reflect"

	"slpdas/internal/core"
	"slpdas/internal/metrics"
)

// Reducer says how one metric's per-run values fold into its cell-level
// Aggregate field.
type Reducer uint8

const (
	// Mean averages every run's value into a metrics.Summary; its N is
	// the number of completed runs.
	Mean Reducer = iota
	// ObservedMean averages into a metrics.Summary only the runs whose
	// extractor reports the value observed: runs that captured, delivered,
	// repaired or drained a battery. The −1 sentinels of the other runs
	// are skipped, and the Summary's N counts the observed runs.
	ObservedMean
	// Proportion counts every observed run as a trial and a non-zero
	// value as a success, into a metrics.Proportion.
	Proportion
)

// Metric declares one per-cell metric: the campaign column it fills, how
// its per-run value is read from a core.Result, how runs reduce, and the
// Aggregate field the reduction fills. The Accumulator, the campaign row
// builder, the CSV writer, the sanitiser and the resume parser all follow
// metricTable, so a new metric costs its Result field, one entry there,
// and its typed fields in Aggregate and campaign.Row.
type Metric struct {
	// Column is the campaign column name, matching a campaign.Row JSON
	// tag; "" for a metric that only lives on the Aggregate.
	Column string
	// Field names the Aggregate field the reduction fills: a
	// metrics.Summary for the mean reducers, a metrics.Proportion for
	// Proportion.
	Field  string
	Reduce Reducer
	// value extracts one run's value and whether the run observed it.
	// Mean ignores the flag.
	value func(r *core.Result, c *core.Config) (x float64, observed bool)
}

// metricTable is every per-cell metric, in campaign column order.
// MessagesByType, keyed by frame type, is folded by hand beside it.
var metricTable = [...]Metric{
	{"capture_ratio", "CaptureRatio", Proportion, func(r *core.Result, _ *core.Config) (float64, bool) { return b2f(r.Captured), true }},
	// Capture time only exists for captured runs.
	{"mean_capture_periods", "CapturePeriods", ObservedMean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.CapturePeriods, r.Captured }},
	{"schedule_valid_ratio", "ScheduleValid", Proportion, func(r *core.Result, _ *core.Config) (float64, bool) { return b2f(r.ScheduleValid()), true }},
	// Whether a CHANGE path was laid; only families with a search phase
	// count trials.
	{"", "SearchSucceeded", Proportion, func(r *core.Result, c *core.Config) (float64, bool) {
		return b2f(r.ChangedNodes > 0), c.Protocol.SearchPhase
	}},
	{"control_messages", "ControlMessages", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.ControlMessages()), true }},
	{"control_bytes", "ControlBytes", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.ControlBytes()), true }},
	{"total_messages", "TotalMessages", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.TotalMessages()), true }},
	{"changed_nodes", "ChangedNodes", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.ChangedNodes), true }},
	{"source_deliveries", "SourceDeliveries", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.SourceDeliveries), true }},
	// The column holds periods (Result.MeanDeliveryLatency), not slots;
	// its name is kept so existing campaign files still resume. Runs that
	// delivered nothing (-1) are skipped.
	{"delivery_latency_slots", "DeliveryLatency", ObservedMean, func(r *core.Result, _ *core.Config) (float64, bool) {
		l := r.MeanDeliveryLatency()
		return l, l >= 0
	}},
	// Mean relocations across the team, from AttackerMoves, which
	// survives with walk recording capped or off.
	{"mean_attacker_moves", "AttackerMoves", ObservedMean, func(r *core.Result, _ *core.Config) (float64, bool) {
		if len(r.AttackerMoves) == 0 {
			return 0, false
		}
		var moves int
		for _, m := range r.AttackerMoves {
			moves += m
		}
		return float64(moves) / float64(len(r.AttackerMoves)), true
	}},
	{"nodes_failed", "NodesFailed", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.NodesFailed), true }},
	{"nodes_recovered", "NodesRecovered", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.NodesRecovered), true }},
	// -1 when no repair was observed, always so for fault-free runs.
	{"repair_periods", "RepairPeriods", ObservedMean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.RepairPeriods, r.RepairPeriods >= 0 }},
	{"delivery_ratio_before", "DeliveryBefore", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.DeliveryBefore, true }},
	{"delivery_ratio_during", "DeliveryDuring", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.DeliveryDuring, true }},
	{"delivery_ratio_after", "DeliveryAfter", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.DeliveryAfter, true }},
	{"partition_ratio", "Partitions", Proportion, func(r *core.Result, _ *core.Config) (float64, bool) { return b2f(r.PartitionDetected), true }},
	{"mean_capture_wins", "CaptureWins", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.RadioStats.CaptureWins), true }},
	{"energy_total_mj", "EnergyTotal", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.EnergyTotalMJ, true }},
	{"energy_max_mj", "EnergyMax", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.EnergyMaxMJ, true }},
	{"mean_energy_deaths", "EnergyDeaths", Mean, func(r *core.Result, _ *core.Config) (float64, bool) { return float64(r.EnergyDeaths), true }},
	// -1 for energy-off runs and runs where no battery ran out.
	{"first_death_period", "FirstDeathPeriod", ObservedMean, func(r *core.Result, _ *core.Config) (float64, bool) {
		return r.FirstDeathPeriod, r.FirstDeathPeriod >= 0
	}},
	// -1 for energy-off runs.
	{"lifetime_periods", "LifetimePeriods", ObservedMean, func(r *core.Result, _ *core.Config) (float64, bool) { return r.LifetimePeriods, r.LifetimePeriods >= 0 }},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// aggField holds, per metricTable entry, the index of its Field in
// Aggregate, resolved once. A name that does not resolve to a field of
// the reducer's type is a bug in the table, so it panics at start-up.
var aggField = func() (idx [len(metricTable)]int) {
	t := reflect.TypeOf(Aggregate{})
	for i, m := range metricTable {
		f, ok := t.FieldByName(m.Field)
		want := reflect.TypeOf(metrics.Summary{})
		if m.Reduce == Proportion {
			want = reflect.TypeOf(metrics.Proportion{})
		}
		if !ok || f.Type != want {
			panic(fmt.Sprintf("experiment: metric %q fills Aggregate.%s, which is not a %s", m.Column, m.Field, want))
		}
		idx[i] = f.Index[0]
	}
	return idx
}()

// Metrics returns the declared per-cell metrics in table order; index i
// of the result is the i of Aggregate.Metric.
func Metrics() []Metric { return metricTable[:] }

// field returns a pointer to the Aggregate field metric i fills: a
// *metrics.Summary or a *metrics.Proportion.
func (a *Aggregate) field(i int) any {
	return reflect.ValueOf(a).Elem().Field(aggField[i]).Addr().Interface()
}

// Metric returns the cell-level value of metric i (an index into
// Metrics): the Summary's mean, or the Proportion's point estimate, NaN
// with no trials.
func (a *Aggregate) Metric(i int) float64 {
	switch f := a.field(i).(type) {
	case *metrics.Summary:
		return f.Mean
	case *metrics.Proportion:
		return f.Value()
	}
	panic("unreachable: aggField admits only Summary and Proportion fields")
}
