package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"slpdas/internal/wire"
)

// metric is one reported metric; BENCHMARK.json lists the same names,
// units and directions, plus the end-to-end regression bounds.
type metric struct {
	name, unit, better string
}

// endToEndMetrics are what an untraced run reports.
var endToEndMetrics = []metric{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"allocs_per_run", "count", "lower"},
}

// cpuLayers are the buckets of the CPU profile: the internal packages a
// run executes, the Go runtime, the benchmark's own code, and the rest.
var cpuLayers = []string{
	"attacker", "campaign", "channel", "core", "des", "energy", "experiment", "fault", "gcn",
	"mac", "metrics", "protocol", "radio", "schedule", "topo", "wire", "xrand",
	"runtime", "bench", "other",
}

// perLayerMetrics are what a traced run reports. LAYERS.md says which
// end-to-end metric each should move, on which workload.
var perLayerMetrics = append([]metric{
	{"topo.build_ms", "ms", "lower"},
	{"core.new_network_ms", "ms", "lower"},
	{"core.reset_us", "us", "lower"},
	{"core.setup_phase_ms_p50", "ms", "lower"},
	{"core.data_phase_ms_p50", "ms", "lower"},
	{"core.setup_phase_share", "ratio", "lower"},
	{"core.ns_per_delivery", "ns", "lower"},
	{"core.ns_per_node_period", "ns", "lower"},
	{"core.changed_nodes", "count", "lower"},
	{"core.sink_deliveries", "count", "higher"},
	{"gcn.dissem_share", "ratio", "lower"},
	{"wire.hello_frames", "count", "lower"},
	{"wire.dissem_frames", "count", "lower"},
	{"wire.search_frames", "count", "lower"},
	{"wire.change_frames", "count", "lower"},
	{"wire.data_frames", "count", "lower"},
	{"wire.dissem_bytes", "bytes", "lower"},
	{"wire.decode_errors", "count", "lower"},
	{"radio.broadcasts", "count", "lower"},
	{"radio.deliveries", "count", "lower"},
	{"radio.bytes_sent", "bytes", "lower"},
	{"radio.loss_drops", "count", "lower"},
	{"radio.collision_drops", "count", "lower"},
	{"radio.sinr_drops", "count", "lower"},
	{"radio.capture_wins", "count", "higher"},
	{"radio.useful_ratio", "ratio", "higher"},
	{"energy.total_mj", "mJ", "lower"},
	{"energy.deaths", "count", "lower"},
	{"fault.nodes_failed", "count", "lower"},
	{"fault.nodes_recovered", "count", "higher"},
	{"fault.repair_periods", "periods", "lower"},
	{"mac.data_periods", "periods", "lower"},
	{"mac.data_frames_per_period", "count", "lower"},
	{"attacker.moves", "count", "lower"},
	{"attacker.capture_ratio", "ratio", "lower"},
	{"schedule.check_ms", "ms", "lower"},
	{"schedule.valid_ratio", "ratio", "higher"},
	{"executor.parallel_efficiency", "ratio", "higher"},
	{"campaign.sink_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}, cpuMetrics()...)

func cpuMetrics() []metric {
	ms := make([]metric, len(cpuLayers))
	for i, l := range cpuLayers {
		ms[i] = metric{"cpu." + l, "ratio", "lower"}
	}
	return ms
}

// span is one timed call into the simulator, as the span dump records it.
type span struct {
	Name      string `json:"name"`
	Parent    int    `json:"parent"`    // index of the enclosing span; -1 for none
	Lifecycle int    `json:"lifecycle"` // operation or replayed lifecycle; -1 for none
	Start     int64  `json:"start_ns"`  // since the run started
	End       int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing but still
// times, so untraced code paths share the traced ones.
type tracer struct {
	t0    time.Time
	spans []span
}

type spanRef struct {
	id    int
	start time.Time
}

func (t *tracer) begin(name string, parent spanRef, lifecycle int) spanRef {
	now := time.Now()
	if t == nil {
		return spanRef{id: -1, start: now}
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent.id, Lifecycle: lifecycle, Start: int64(now.Sub(t.t0))})
	return spanRef{id: len(t.spans) - 1, start: now}
}

// end closes s and returns its duration.
func (t *tracer) end(s spanRef) time.Duration {
	now := time.Now()
	if t != nil && s.id >= 0 {
		t.spans[s.id].End = int64(now.Sub(t.t0))
	}
	return now.Sub(s.start)
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns"`
	}{spans, selfTimes(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics computes the traced run's metrics from the set-up spans,
// the replayed lifecycles, the traced phase's spans and the CPU profile.
func (h *harness) layerMetrics(untraced, traced phase, records []replayRecord, profile []byte) map[string]value {
	vals := make(map[string]float64)
	spans := h.tr.spans

	// Set-up: per set-up, the time spent building topologies and wiring
	// networks.
	perSetup := make(map[int]map[string]float64)
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == "setup" {
			if perSetup[s.Parent] == nil {
				perSetup[s.Parent] = make(map[string]float64)
			}
			perSetup[s.Parent][s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	var topoMs, wireMs []float64
	for _, m := range perSetup {
		topoMs = append(topoMs, m["topo.build"])
		wireMs = append(wireMs, m["core.NewNetwork"])
	}
	vals["topo.build_ms"] = median(topoMs)
	vals["core.new_network_ms"] = median(wireMs)

	// Replayed lifecycles: phase split and counts read from core.Result.
	var resets, setupMs, dataMs, checkMs []float64
	var setupSum, runSum time.Duration
	var c struct {
		changed, sinkDeliveries, decodeErrors, repair, repairN, moves, captured, valid float64
		broadcasts, deliveries, bytesSent, loss, collision, sinr, captureWins          float64
		energy, deaths, failed, recovered, periods, nodePeriods                        float64
		frames, bytes                                                                  [int(wire.TypeData) + 1]float64
	}
	for _, rec := range records {
		r := rec.res
		resets = append(resets, float64(rec.reset.Nanoseconds())/1e3)
		setupMs = append(setupMs, float64(rec.setupPhase.Nanoseconds())/1e6)
		dataMs = append(dataMs, float64((rec.run-rec.setupPhase).Nanoseconds())/1e6)
		checkMs = append(checkMs, float64(rec.check.Nanoseconds())/1e6)
		setupSum += rec.setupPhase
		runSum += rec.run
		c.changed += float64(r.ChangedNodes)
		c.sinkDeliveries += float64(r.SourceDeliveries)
		c.decodeErrors += float64(r.DecodeErrors)
		if r.RepairPeriods >= 0 {
			c.repair += r.RepairPeriods
			c.repairN++
		}
		for _, m := range r.AttackerMoves {
			c.moves += float64(m)
		}
		if r.Captured {
			c.captured++
		}
		if r.ScheduleValid() {
			c.valid++
		}
		st := r.RadioStats
		c.broadcasts += float64(st.Broadcasts)
		c.deliveries += float64(st.Deliveries)
		c.bytesSent += float64(st.BytesSent)
		c.loss += float64(st.LossDrops)
		c.collision += float64(st.CollisionDrops)
		c.sinr += float64(st.SINRDrops)
		c.captureWins += float64(st.CaptureWins)
		c.energy += r.EnergyTotalMJ
		c.deaths += float64(r.EnergyDeaths)
		c.failed += float64(r.NodesFailed)
		c.recovered += float64(r.NodesRecovered)
		c.periods += r.PeriodsRun
		c.nodePeriods += float64(r.Nodes) * r.PeriodsRun
		for t, s := range r.Messages {
			if int(t) < len(c.frames) {
				c.frames[t] += float64(s.Count)
				c.bytes[t] += float64(s.Bytes)
			}
		}
	}
	n := float64(len(records))
	mean := func(x float64) float64 { return ratio(x, n) }
	vals["core.reset_us"] = median(resets)
	vals["core.setup_phase_ms_p50"] = median(setupMs)
	vals["core.data_phase_ms_p50"] = median(dataMs)
	vals["core.setup_phase_share"] = ratio(setupSum.Seconds(), runSum.Seconds())
	vals["core.ns_per_delivery"] = ratio(float64(runSum.Nanoseconds()), c.deliveries)
	vals["core.ns_per_node_period"] = ratio(float64(runSum.Nanoseconds()), c.nodePeriods)
	vals["core.changed_nodes"] = mean(c.changed)
	vals["core.sink_deliveries"] = mean(c.sinkDeliveries)
	vals["gcn.dissem_share"] = ratio(c.frames[wire.TypeDissem], c.broadcasts)
	vals["wire.hello_frames"] = mean(c.frames[wire.TypeHello])
	vals["wire.dissem_frames"] = mean(c.frames[wire.TypeDissem])
	vals["wire.search_frames"] = mean(c.frames[wire.TypeSearch])
	vals["wire.change_frames"] = mean(c.frames[wire.TypeChange])
	vals["wire.data_frames"] = mean(c.frames[wire.TypeData])
	vals["wire.dissem_bytes"] = mean(c.bytes[wire.TypeDissem])
	vals["wire.decode_errors"] = mean(c.decodeErrors)
	vals["radio.broadcasts"] = mean(c.broadcasts)
	vals["radio.deliveries"] = mean(c.deliveries)
	vals["radio.bytes_sent"] = mean(c.bytesSent)
	vals["radio.loss_drops"] = mean(c.loss)
	vals["radio.collision_drops"] = mean(c.collision)
	vals["radio.sinr_drops"] = mean(c.sinr)
	vals["radio.capture_wins"] = mean(c.captureWins)
	vals["radio.useful_ratio"] = ratio(c.deliveries, c.deliveries+c.loss+c.collision+c.sinr)
	vals["energy.total_mj"] = mean(c.energy)
	vals["energy.deaths"] = mean(c.deaths)
	vals["fault.nodes_failed"] = mean(c.failed)
	vals["fault.nodes_recovered"] = mean(c.recovered)
	vals["fault.repair_periods"] = ratio(c.repair, c.repairN)
	vals["mac.data_periods"] = mean(c.periods)
	vals["mac.data_frames_per_period"] = ratio(c.frames[wire.TypeData], c.periods)
	vals["attacker.moves"] = mean(c.moves)
	vals["attacker.capture_ratio"] = mean(c.captured)
	vals["schedule.check_ms"] = median(checkMs)
	vals["schedule.valid_ratio"] = mean(c.valid)

	// Executor: one-goroutine busy time of a cycle's lifecycles against
	// the untraced wall time of the same cycle on every worker.
	var cycle float64
	for _, ds := range untraced.opSeconds() {
		cycle += median(ds)
	}
	vals["executor.parallel_efficiency"] = ratio(runSum.Seconds(), cycle*float64(h.opt.workers))

	var sinkSum, opSum float64
	for _, s := range spans {
		switch s.Name {
		case "campaign.Sink.Write":
			sinkSum += float64(s.End - s.Start)
		case "op":
			opSum += float64(s.End - s.Start)
		}
	}
	vals["campaign.sink_share"] = ratio(sinkSum, opSum)
	vals["trace.overhead_ratio"] = ratio(rate(untraced), rate(traced))

	shares, err := cpuShares(profile)
	if err != nil {
		h.note("cpu profile: %v", err)
	}
	for l, s := range shares {
		vals["cpu."+l] = s
	}
	return withUnits(perLayerMetrics, vals)
}

// rate is a phase's lifecycles per wall-clock second.
func rate(p phase) float64 { return ratio(float64(p.lifecycles()), p.wall.Seconds()) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuShares reduces a CPU profile, gzip-compressed protobuf as
// runtime/pprof writes it, to the share of CPU time spent in each layer of
// cpuLayers. The shares sum to 1. A sample belongs to the innermost frame
// that is either in the Go runtime ("runtime." functions), in an
// internal package, or in the benchmark itself; so standard-library code
// such as sort.Search or encoding/binary counts toward the layer that
// called it, and a sample with none of these frames counts as other.
func cpuShares(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	totals := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		layer := "other"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l := layerOf(p.str(p.functions[fn])); l != "" {
					layer = l
					break frames
				}
			}
		}
		v := float64(s.values[vi])
		totals[layer] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = totals[l] / total
	}
	return shares, nil
}

// layerOf maps a profiled function name to its layer, or "" for a frame
// that belongs to its caller's layer.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime."):
		return "runtime"
	// A test binary names this package by its import path.
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "slpdas/perfbench."):
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "slpdas/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range cpuLayers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// profile is the part of a pprof Profile message cpuShares reads.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profileSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → string-table index of its name
	strings     []string
}

type profileSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

var errProfile = errors.New("malformed profile")

// Field numbers from profile.proto.
const (
	fieldSampleType  = 1
	fieldSample      = 2
	fieldLocation    = 4
	fieldFunction    = 5
	fieldStringTable = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	return p, eachField(b, func(f field) error {
		switch f.num {
		case fieldSampleType:
			var typ int64
			err := eachField(f.data, func(g field) error {
				if g.num == 1 {
					typ = int64(g.val)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fieldSample:
			var s profileSample
			err := eachField(f.data, func(g field) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = g.uints(s.locations)
				case 2:
					var vs []uint64
					vs, err = g.uints(nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case fieldLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return eachField(g.data, func(l field) error {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldFunction:
			var id uint64
			var name int64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = int64(g.val)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldStringTable:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
}

// field is one protobuf field: a varint's value, or a length-delimited
// field's bytes.
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// uints appends the field's integers to dst, whether encoded as one
// varint or as a packed run of them.
func (f field) uints(dst []uint64) ([]uint64, error) {
	switch f.wire {
	case 0:
		return append(dst, f.val), nil
	case 2:
		for b := f.data; len(b) > 0; {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return dst, errProfile
			}
			dst, b = append(dst, v), b[n:]
		}
		return dst, nil
	}
	return dst, errProfile
}

// eachField calls fn for every field of the protobuf message b.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if f.wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errProfile
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
