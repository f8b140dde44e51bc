package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// stubSuite replaces the real suite with one allocation-free benchmark
// for the duration of a test.
func stubSuite(t *testing.T) {
	t.Helper()
	saved := benchmarks
	benchmarks = func() []benchmark {
		return []benchmark{{"stub/noop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
		}}}
	}
	t.Cleanup(func() { benchmarks = saved })
}

func writeReport(t *testing.T, path string, results ...Result) []byte {
	t.Helper()
	data, err := json.Marshal(Report{Schema: "slpdas-bench/3", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckDoesNotOverwriteBaseline is the regression test for the
// vacuous gate: -out defaults to the committed baseline's name, and the
// report used to be written before the baseline was read, so
// `-check BENCH_10.json` replaced the baseline and compared it with
// itself. An -out naming the -check file, however spelled, must now be
// refused with the baseline untouched.
func TestCheckDoesNotOverwriteBaseline(t *testing.T) {
	stubSuite(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_10.json")
	want := writeReport(t, base, Result{Name: "stub/noop", Iterations: 1})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, args := range [][]string{
		{"-quiet", "-check", "BENCH_10.json"}, // -out defaults to BENCH_10.json
		{"-quiet", "-out", "BENCH_10.json", "-check", "BENCH_10.json"},
		{"-quiet", "-out", "./BENCH_10.json", "-check", base},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		got, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run(%q) modified the baseline", args)
		}
	}
}

// TestCheckAgainstSeparateBaseline pins the CI invocation
// (-out BENCH_10.fresh.json -check BENCH_10.json): the fresh report is
// written, the baseline left alone, and the gate really compares the two:
// a baseline suite missing from the fresh run fails, as does a missing
// baseline.
func TestCheckAgainstSeparateBaseline(t *testing.T) {
	stubSuite(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_10.json")
	fresh := filepath.Join(dir, "BENCH_10.fresh.json")
	args := []string{"-quiet", "-out", fresh, "-check", base}

	want := writeReport(t, base, Result{Name: "stub/noop", Iterations: 1})
	if code := run(args); code != 0 {
		t.Fatalf("matching baseline: exit %d, want 0", code)
	}
	if got, _ := os.ReadFile(base); !bytes.Equal(got, want) {
		t.Error("baseline modified")
	}
	report, err := readReport(fresh)
	if err != nil {
		t.Fatalf("fresh report: %v", err)
	}
	if len(report.Results) != 1 || report.Results[0].Name != "stub/noop" {
		t.Errorf("fresh report = %+v", report.Results)
	}

	// The stub allocates nothing, so a baseline recording allocations is
	// an improvement, while a missing suite is a hard failure.
	writeReport(t, base, Result{Name: "stub/noop", AllocsPerOp: 3}, Result{Name: "stub/gone"})
	if code := run(args); code != 1 {
		t.Errorf("baseline with a suite missing from the fresh run: exit %d, want 1", code)
	}

	if code := run([]string{"-quiet", "-out", fresh, "-check", filepath.Join(dir, "absent.json")}); code != 1 {
		t.Errorf("missing baseline: exit %d, want 1", code)
	}
}

// TestCompareBaselineZeroAllocGate: growth from a zero-alloc baseline
// fails, other allocation growth only warns.
func TestCompareBaselineZeroAllocGate(t *testing.T) {
	base := Report{Results: []Result{{Name: "a"}, {Name: "b", AllocsPerOp: 5}}}
	if compareBaseline("base", base, Report{Results: []Result{{Name: "a", AllocsPerOp: 1}, {Name: "b", AllocsPerOp: 5}}}) {
		t.Error("allocation in a zero-alloc suite passed")
	}
	if !compareBaseline("base", base, Report{Results: []Result{{Name: "a"}, {Name: "b", AllocsPerOp: 9}}}) {
		t.Error("allocation growth in a non-zero suite failed; it should only warn")
	}
}
