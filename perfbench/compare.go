package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkDef is BENCHMARK.json.
type benchmarkDef struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []benchEntry  `json:"workloads"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var def benchmarkDef
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadReports reads the untraced report lines from a file of captured
// benchmark output; every other line is skipped.
func loadReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r report
		if json.Unmarshal(line, &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced report lines", path)
	}
	return out, nil
}

// verdict is the judgement of one (workload, metric) pair.
type verdict struct {
	parent, change [3]float64 // quartiles: q1, median, q3
	wins, pairs    int
	worse          float64 // relative change of the median; positive is worse
	label          string
}

// judge applies the benchmark's rules to one metric's runs. improved: the
// change wins at least 9 of every 10 pairs and the medians differ by more
// than the parent's interquartile range. unresolved: the parent's spread
// is wider than the bound and not every change run beats every parent
// run. regressed: the change's median is worse than the parent's by more
// than the bound. Otherwise unchanged.
func judge(parent, change []float64, pairs [][2]float64, higherBetter bool, bound float64) verdict {
	var v verdict
	v.parent[0], v.parent[1], v.parent[2] = quartiles(parent)
	v.change[0], v.change[1], v.change[2] = quartiles(change)
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			v.wins++
		}
	}
	v.pairs = len(pairs)
	v.worse = ratio(v.change[1]-v.parent[1], v.parent[1])
	if higherBetter {
		v.worse = -v.worse
	}
	iqr := v.parent[2] - v.parent[0]
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && v.worse < 0 && math.Abs(v.change[1]-v.parent[1]) > iqr:
		v.label = "improved"
	case ratio(iqr, math.Abs(v.parent[1])) > bound && !allBetter:
		v.label = "unresolved"
	case v.worse > bound:
		v.label = "regressed"
	default:
		v.label = "unchanged"
	}
	return v
}

// pairRuns pairs parent and change runs of one workload by seed, falling
// back to file order when the two sets share no seed.
func pairRuns(parent, change []report) [][2]report {
	bySeed := make(map[uint64]report, len(change))
	for _, r := range change {
		if _, dup := bySeed[r.Seed]; !dup {
			bySeed[r.Seed] = r
		}
	}
	var pairs [][2]report
	for _, p := range parent {
		if c, ok := bySeed[p.Seed]; ok {
			pairs = append(pairs, [2]report{p, c})
			delete(bySeed, p.Seed)
		}
	}
	if len(pairs) > 0 {
		return pairs
	}
	for i := 0; i < len(parent) && i < len(change); i++ {
		pairs = append(pairs, [2]report{parent[i], change[i]})
	}
	return pairs
}

// compareFiles prints one row per (workload, end-to-end metric) and exits
// 1 when any pair regressed or a workload's failure ratio rose.
func compareFiles(parentPath, changePath, benchPath string, stdout, stderr io.Writer) int {
	def, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	parent, err := loadReports(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	change, err := loadReports(changePath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	warnProvenance(stderr, append(append([]report(nil), parent...), change...))

	bad := false
	fmt.Fprintf(stdout, "%-20s %-20s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ median", "wins", "verdict")
	for _, w := range def.Workloads {
		p, c := ofWorkload(parent, w.Name), ofWorkload(change, w.Name)
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(stdout, "%-20s no runs on one side (parent %d, change %d)\n", w.Name, len(p), len(c))
			continue
		}
		pairs := pairRuns(p, c)
		for _, m := range def.EndToEnd {
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			var pv, cv []float64
			var pp [][2]float64
			for _, r := range p {
				pv = append(pv, r.Metrics[m.Name].Value)
			}
			for _, r := range c {
				cv = append(cv, r.Metrics[m.Name].Value)
			}
			for _, pr := range pairs {
				pp = append(pp, [2]float64{pr[0].Metrics[m.Name].Value, pr[1].Metrics[m.Name].Value})
			}
			v := judge(pv, cv, pp, m.Better == "higher", bound)
			if v.label == "regressed" {
				bad = true
			}
			fmt.Fprintf(stdout, "%-20s %-20s %-34s %-34s %+7.1f%% %6s  %s (bound %.0f%%)\n", w.Name, m.Name,
				quart(v.parent), quart(v.change), 100*(v.change[1]-v.parent[1])/nonZero(v.parent[1]),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.label, 100*bound)
		}
		pf, pa := failures(p)
		cf, ca := failures(c)
		line := fmt.Sprintf("%-20s %-20s parent %d/%d, change %d/%d", w.Name, "failed/attempted", pf, pa, cf, ca)
		if ratio(float64(cf), float64(ca)) > ratio(float64(pf), float64(pa)) {
			line += "  FAIL RATIO ROSE"
			bad = true
		}
		fmt.Fprintln(stdout, line)
	}
	if bad {
		return 1
	}
	return 0
}

func ofWorkload(rs []report, name string) []report {
	var out []report
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func failures(rs []report) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}

func nonZero(x float64) float64 {
	if x == 0 {
		return math.NaN()
	}
	return x
}

// warnProvenance flags reports measured on different hosts or toolchains,
// which makes their comparison meaningless.
func warnProvenance(w io.Writer, rs []report) {
	first := rs[0].Provenance
	for _, r := range rs[1:] {
		p := r.Provenance
		if p.NumCPU != first.NumCPU || p.GOMAXPROCS != first.GOMAXPROCS || p.CPU != first.CPU || p.GoVersion != first.GoVersion {
			fmt.Fprintf(w, "perfbench: WARN runs differ in host or toolchain: %+v vs %+v\n", first, p)
			return
		}
	}
}
