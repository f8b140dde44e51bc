package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4), the
	// definition the benchmark's spread rule uses.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 2.25, 9, 4, 7.5, 3}, 2.25, 4, 7.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.q2)
		}
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
}

func TestJudgeAppliesBoundsAndPairRule(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	pairs := func(a, b []float64) [][2]float64 {
		var ps [][2]float64
		for i := range a {
			ps = append(ps, [2]float64{a[i], b[i]})
		}
		return ps
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          float64
		want           string
	}{
		{"faster on a lower-is-better metric", base, scaled(0.9), false, 0.08, "improved"},
		{"faster on a higher-is-better metric", base, scaled(1.1), true, 0.08, "improved"},
		{"within the bound", base, scaled(1.03), false, 0.08, "unchanged"},
		{"beyond the bound", base, scaled(1.2), false, 0.08, "regressed"},
		{"throughput beyond the bound", base, scaled(0.8), true, 0.08, "regressed"},
		{"spread wider than the bound", noisy, noisy, false, 0.08, "unresolved"},
	} {
		v := judge(tc.parent, tc.change, pairs(tc.parent, tc.change), tc.higherBetter, tc.bound)
		if v.label != tc.want {
			t.Errorf("%s: verdict %q (worse %+.3f, wins %d/%d), want %q", tc.name, v.label, v.worse, v.wins, v.pairs, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

// TestBenchmarkJSONMatchesBinary pins BENCHMARK.json to what this command
// runs and reports, within the limits the benchmark format sets.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(def.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %q, want bash perfbench/run.sh", def.Command)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "perfbench" || !pathRE.MatchString(def.Paths[0]) {
		t.Errorf("paths %q, want [perfbench]", def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", def.RunSeconds)
	}

	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the name rules", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var names []string
	for _, w := range def.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if _, ok := goldenDigests[w.Name]; !ok {
			t.Errorf("workload %s has no golden digest", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, binary runs %s", got, want)
	}

	checkMetrics := func(kind string, listed []benchMetric, reported []metric, min, max int) {
		if n := len(listed); n < min || n > max {
			t.Errorf("%d %s metrics, want %d..%d", n, kind, min, max)
		}
		if len(listed) != len(reported) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary reports %d", kind, len(listed), len(reported))
		}
		for i, m := range listed {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the unit rules", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better %q, want higher or lower", m.Name, m.Better)
			}
			if i < len(reported) {
				if r := reported[i]; r.name != m.Name || r.unit != m.Unit || r.better != m.Better {
					t.Errorf("%s: BENCHMARK.json has %s/%s/%s, binary reports %s/%s/%s",
						kind, m.Name, m.Unit, m.Better, r.name, r.unit, r.better)
				}
			}
		}
	}
	checkMetrics("end_to_end", def.EndToEnd, endToEndMetrics, 1, 16)
	checkMetrics("per_layer", def.PerLayer, perLayerMetrics, 1, 128)

	var setupBound, otherMax float64
	for _, m := range def.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		} else {
			otherMax = math.Max(otherMax, *m.Bound)
		}
	}
	if setupBound <= otherMax {
		t.Errorf("setup_s bound %v must be the largest (others up to %v)", setupBound, otherMax)
	}
	for _, m := range def.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// TestSmokeWorkloads runs every workload at reduced size: two untraced
// runs must agree on the digest, the executor workloads must give the same
// digest on one worker as on two, and a traced run must report every
// per-layer metric with CPU shares summing to 1.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 7, seconds: 0.2, small: true, workers: w.workers, workdir: t.TempDir()}
			first := measure(w, opt, io.Discard)
			second := measure(w, opt, io.Discard)
			for _, r := range []*report{first, second} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("untraced run: correct=%v failed=%d/%d errors=%q", r.Correct, r.Failed, r.Attempted, r.Errors)
				}
				for _, m := range endToEndMetrics {
					if v, ok := r.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
						t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
					}
				}
			}
			if first.Digest != second.Digest {
				t.Errorf("digest differs between invocations: %s vs %s", first.Digest, second.Digest)
			}
			if w.workers > 1 {
				one := opt
				one.workers = 1
				if r := measure(w, one, io.Discard); !r.Correct || r.Digest != first.Digest {
					t.Errorf("1 worker: correct=%v digest %s, 2 workers: %s", r.Correct, r.Digest, first.Digest)
				}
			}

			traced := opt
			traced.trace, traced.seconds = true, 2
			r := measure(w, traced, io.Discard)
			if !r.Correct || r.Digest != first.Digest {
				t.Fatalf("traced run: correct=%v digest %s (untraced %s) errors=%q", r.Correct, r.Digest, first.Digest, r.Errors)
			}
			var cpu float64
			for _, m := range perLayerMetrics {
				v, ok := r.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Errorf("per-layer metric %s = %+v, want a value in %s", m.name, v, m.unit)
				}
				if strings.HasPrefix(m.name, "cpu.") {
					cpu += v.Value
				}
			}
			if math.Abs(cpu-1) > 0.01 {
				t.Errorf("cpu.* shares sum to %v, want 1 ± 0.01", cpu)
			}
			if len(r.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(r.Metrics), len(perLayerMetrics))
			}
			if r.Metrics["radio.broadcasts"].Value <= 0 || r.Metrics["core.setup_phase_ms_p50"].Value <= 0 {
				t.Errorf("replay counted no broadcasts or no setup phase: %+v", r.Metrics)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                          "runtime",
		"runtime.gcBgMarkWorker":                    "runtime",
		"slpdas/internal/gcn.(*Process).stepOnce":   "gcn",
		"slpdas/internal/des.(*Simulator).RunUntil": "des",
		"slpdas/internal/core.NewNetwork.func1":     "core",
		"slpdas/internal/lint/analysis.Run":         "other",
		"main.run":                                  "bench",
		"slpdas/perfbench.resultDigest":             "bench",
		"sort.Search":                               "",
		"encoding/binary.Uvarint":                   "",
		"internal/runtime/maps.(*Map).getWithKey":   "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin keeps the CPU busy in this package for d.
func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestCPUSharesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a busy loop in this package got %.2f of the profile, want most of it: %v", shares["bench"], shares)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("cpuShares accepted garbage")
	}
}

func TestGitCommitFollowsRefs(t *testing.T) {
	dir := t.TempDir()
	if got := gitCommit(dir); got != "" {
		t.Errorf("no .git: commit %q, want empty", got)
	}
	git := filepath.Join(dir, ".git")
	write := func(name, data string) {
		path := filepath.Join(git, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs with: peeled\nabc123 refs/heads/main\n")
	if got := gitCommit(dir); got != "abc123" {
		t.Errorf("packed ref: commit %q, want abc123", got)
	}
	write("refs/heads/main", "def456\n")
	if got := gitCommit(dir); got != "def456" {
		t.Errorf("loose ref: commit %q, want def456", got)
	}
	write("HEAD", "0123abcd\n")
	if got := gitCommit(dir); got != "0123abcd" {
		t.Errorf("detached HEAD: commit %q, want 0123abcd", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	runs := func(path string, rate float64, failed int) {
		var b strings.Builder
		for seed := 1; seed <= 10; seed++ {
			fmt.Fprintf(&b, `{"workload":"rgg500-faithful","seed":%d,"attempted":100,"failed":%d,`+
				`"metrics":{"runs_per_s":{"value":%g,"unit":"1/s"}}}`+"\n", seed, failed, rate*(1+0.001*float64(seed)))
			b.WriteString(`{"correct":true,"attempted":100,"failed":0,"metrics":{}}` + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"command":["x"],"paths":["p"],"run_seconds":1,
		"workloads":[{"name":"rgg500-faithful","why":"w"}],
		"end_to_end":[{"name":"runs_per_s","unit":"1/s","better":"higher","bound":0.08}],
		"per_layer":[{"name":"cpu.des","unit":"ratio","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent, same, slower, failing := filepath.Join(dir, "p"), filepath.Join(dir, "s"), filepath.Join(dir, "r"), filepath.Join(dir, "f")
	runs(parent, 5, 0)
	runs(same, 5, 0)
	runs(slower, 4, 0)
	runs(failing, 5, 1)
	for _, tc := range []struct {
		change, want string
		code         int
	}{
		{same, "unchanged", 0},
		{slower, "regressed", 1},
		{failing, "FAIL RATIO ROSE", 1},
	} {
		var out bytes.Buffer
		if code := compareFiles(parent, tc.change, bench, &out, io.Discard); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("compare against %s: exit %d, want %d; output lacks %q:\n%s", tc.change, code, tc.code, tc.want, out.String())
		}
	}
}
