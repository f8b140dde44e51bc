// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload in its own process, measures it for a fixed time, checks
// that the simulated statistics it produced are the pinned ones, and
// prints every metric by name with its unit.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash perfbench/run.sh --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//	bash perfbench/run.sh -compare parent.out change.out
//
// # Workloads
//
// All workloads are closed-loop batch work from one process. Each builds
// its inputs from the seed, sets them up once, runs one untimed warm-up
// operation per network, and then repeats cycles of its operations for the
// measured time. Every cycle starts with one timed cold set-up of a fresh
// copy of the inputs:
//
//   - fig5a-grid: one experiment.RunFigure5 over 11/15/21 grids, SD 3,
//     20 repeats, 2 workers (120 lifecycles). The paper's headline figure
//     through the experiment executor, with a cache-sized working set, the
//     ideal channel and faults and energy off.
//   - churn-sinr-campaign: one campaign.Run on an 11×11 grid, both
//     protocols × logdist:2.4:4@sinr:3 × battery:25 × churn:0.15:2, 50
//     repeats, 2 workers (100 lifecycles), streamed to a JSONL file. Every
//     delivery runs the SINR fold and the energy meter, and crash/rejoin
//     rewires the network mid-run.
//   - rgg500-faithful: single slp-das lifecycles on eight 500-node
//     campaign-layout RGGs (range 1.8 spacings) under the paper's
//     unit-decrement Figure 2 rule, three run seeds per layout. Setup-bound:
//     dissemination and collision-resolution churn.
//   - rgg20k-scale: single protectionless lifecycles of the
//     core/large-run-rgg-20k configuration: a 20k-node RGG,
//     FastCollisionResolve, 2000 slots × 10 ms, source within 12 hops.
//     Scale and memory locality: a deep event queue and node state far
//     beyond cache.
//
// # Metrics
//
// An untraced run (--trace 0) reports the end-to-end metrics: setup_s,
// runs_per_s, peak_rss_mb and allocs_per_run. setup_s is the median cold
// set-up; runs_per_s is the median over the cycle's operations of each
// operation's lifecycles per median repetition time. A traced
// run (--trace 1) measures half its time untraced and half under a CPU
// profile with spans around every call into the simulator's public
// functions, then replays one cycle of lifecycles one by one through core
// to split each run into its setup and data phases, and reports the
// per-layer metrics: counts read from core.Result, span times, and cpu.*
// self-time shares per internal package. LAYERS.md lists them, which
// end-to-end metric each should move on which workload, and the first
// traced tables.
//
// # Correctness
//
// Every operation hashes the simulated statistics it produced (the JSONL
// bytes for the campaign, the figure table and every Result field for the
// others). All repetitions of an operation must reproduce its warm-up or
// first digest; the executor workloads' output must equal the same
// lifecycles replayed one by one through core; and at the default seed the
// workload digest must equal the golden one in golden.go. Any mismatch
// counts the affected lifecycles as failed, and the command then exits 1.
//
// # Output
//
// Standard error gets a readable metric table. Standard output gets one
// report line (a JSON object with the workload, seed, provenance, sample
// counts, digest and metrics) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. -compare reads the report
// lines of two sets of runs and judges every (workload, end-to-end metric)
// pair against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed; RGG layouts and run seeds derive from it")
	seconds := fs.Float64("seconds", 20, "time to measure for")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary files and span dumps")
	compare := fs.Bool("compare", false, "compare two files of run reports: -compare parent.out change.out")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two report files: parent.out change.out")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *benchFile, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	rep := measure(w, options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workers: w.workers,
		workdir: *workdir,
	}, stderr)
	if rep.Trace && len(rep.spans) > 0 {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(rep.spans), path)
		}
	}
	printTable(stderr, rep)
	for _, line := range []any{rep, rep.result()} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured, with the provenance needed to
// judge whether two runs are comparable at all.
type report struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Workers    int        `json:"workers"`
	Provenance provenance `json:"provenance"`
	Setups     int        `json:"setups"`
	// SetupSeconds lists the duration of every timed cold set-up.
	SetupSeconds []float64 `json:"setup_seconds"`
	Ops          int       `json:"ops"`
	Lifecycles   int       `json:"lifecycles"`
	// OpSeconds lists, per operation of the cycle, the wall time of each
	// correct untraced repetition.
	OpSeconds [][]float64      `json:"op_seconds"`
	Digest    string           `json:"digest"`
	Errors    []string         `json:"errors,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	spans []span
}

// result is the last line of standard output, in the benchmark contract's
// exact shape.
func (r *report) result() any {
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func printTable(w io.Writer, r *report) {
	fmt.Fprintf(w, "perfbench: %s seed=%d trace=%v ops=%d lifecycles=%d failed=%d/%d digest=%.16s…\n",
		r.Workload, r.Seed, r.Trace, r.Ops, r.Lifecycles, r.Failed, r.Attempted, r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "perfbench: ERROR %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// provenance identifies the host and build a report was measured on.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit,omitempty"`
}

func hostProvenance() provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		Commit:     gitCommit("."),
	}
}

// cpuModel reads the host CPU model from /proc/cpuinfo; empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// gitCommit reads the checked-out commit from dir/.git without running
// git, following one symbolic ref through loose or packed refs. Empty when
// dir is not a git work tree.
func gitCommit(dir string) string {
	gitDir := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// peakRSSMiB is the process's peak resident set size: VmHWM from
// /proc/self/status, which belongs to this program's image alone.
// getrusage's maxrss also keeps the peak of whatever ran in the process
// before exec (a forking launcher's image counts), so it serves only where
// /proc is missing.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
