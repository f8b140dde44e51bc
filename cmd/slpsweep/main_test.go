package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slpdas/internal/campaign"
)

// sweepArgs is a tiny real campaign (4 cells, 2 repeats of a 5×5 grid)
// used by every CLI test; extra holds the per-test flags.
func sweepArgs(out string, extra ...string) []string {
	args := []string{"-sizes", "5", "-sd", "1,2", "-repeats", "2", "-seed", "3", "-quiet", "-out", out}
	return append(args, extra...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

func TestCLIResumeAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if code := run(sweepArgs(single)); code != 0 {
		t.Fatalf("full run exited %d", code)
	}
	want := readFile(t, single)

	// Tear at several points, including cutting the whole file away.
	for _, cut := range []int{0, 25, len(want) / 2, len(want) - 3} {
		torn := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(torn, want[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run(sweepArgs(torn, "-resume")); code != 0 {
			t.Fatalf("cut %d: resume exited %d", cut, code)
		}
		if got := readFile(t, torn); !bytes.Equal(got, want) {
			t.Errorf("cut %d: resumed file differs from uninterrupted run:\n%s\nvs\n%s", cut, got, want)
		}
	}

	// Resuming a finished file is a no-op that leaves it untouched.
	if code := run(sweepArgs(single, "-resume")); code != 0 {
		t.Fatalf("no-op resume exited %d", code)
	}
	if got := readFile(t, single); !bytes.Equal(got, want) {
		t.Error("no-op resume modified a complete file")
	}

	// Resuming with mismatched flags must refuse the file rather than
	// silently mix two campaigns, and must leave it untouched.
	for name, args := range map[string][]string{
		"wrong seed":    {"-sizes", "5", "-sd", "1,2", "-repeats", "2", "-seed", "99", "-quiet", "-resume", "-out", single},
		"wrong repeats": {"-sizes", "5", "-sd", "1,2", "-repeats", "7", "-seed", "3", "-quiet", "-resume", "-out", single},
		"changed axes":  {"-sizes", "5", "-sd", "1", "-repeats", "2", "-seed", "3", "-quiet", "-resume", "-out", single},
	} {
		if code := run(args); code == 0 {
			t.Errorf("%s: resume exited 0, want refusal", name)
		}
		if got := readFile(t, single); !bytes.Equal(got, want) {
			t.Fatalf("%s: refused resume modified the file", name)
		}
	}
}

func TestCLIResumeCSVKeepsSingleHeader(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.csv")
	if code := run(sweepArgs(single)); code != 0 {
		t.Fatalf("full run exited %d", code)
	}
	want := readFile(t, single)

	// Cut mid-way through the third line (header + 1 complete record +
	// torn record); resume must not write a second header.
	lines := bytes.SplitAfter(want, []byte("\n"))
	cut := len(lines[0]) + len(lines[1]) + 7
	torn := filepath.Join(dir, "torn.csv")
	if err := os.WriteFile(torn, want[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(sweepArgs(torn, "-resume")); code != 0 {
		t.Fatalf("resume exited %d", code)
	}
	if got := readFile(t, torn); !bytes.Equal(got, want) {
		t.Errorf("resumed csv differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// Torn before the header completes: the fresh header must be written.
	if err := os.WriteFile(torn, want[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(sweepArgs(torn, "-resume")); code != 0 {
		t.Fatalf("resume exited %d", code)
	}
	if got := readFile(t, torn); !bytes.Equal(got, want) {
		t.Errorf("header-torn resume differs from uninterrupted run")
	}
}

func TestCLIShardsTileTheMatrix(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if code := run(sweepArgs(single)); code != 0 {
		t.Fatalf("full run exited %d", code)
	}
	var shards [][]campaign.Row
	seen := 0
	for i := 0; i < 3; i++ {
		out := filepath.Join(dir, "shard.jsonl")
		if code := run(sweepArgs(out, "-shard", string(rune('0'+i))+"/3")); code != 0 {
			t.Fatalf("shard %d exited %d", i, code)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := campaign.ReadRows(f, "jsonl")
		f.Close()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for _, r := range rows {
			if r.Cell%3 != i {
				t.Errorf("shard %d emitted cell %d", i, r.Cell)
			}
		}
		seen += len(rows)
		shards = append(shards, rows)
	}
	if seen != 4 {
		t.Errorf("%d cells across shards, want 4", seen)
	}
}

func TestCLIFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"resume without out": {"-resume", "-quiet"},
		"bad shard syntax":   {"-shard", "3", "-quiet"},
		"bad shard index":    {"-shard", "x/3", "-quiet"},
		"shard out of range": {"-shard", "3/3", "-quiet"},
		"shard count zero":   {"-shard", "2/0", "-quiet"},
		"bad channel nan":    {"-channels", "bernoulli:NaN", "-quiet"},
		"attacker 4-tuple":   {"-attackers", "1,0,1,5", "-quiet"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("%s: exited 0, want failure", name)
		}
	}
	// campaign.Spec reads a zero repeat count as "use the default", which
	// would run a different campaign from the one asked for; a count
	// below 1 is a usage error.
	for name, args := range map[string][]string{
		"zero repeats":     {"-sizes", "5", "-sd", "1", "-protocols", "protectionless", "-repeats", "0", "-quiet"},
		"negative repeats": {"-sizes", "5", "-sd", "1", "-protocols", "protectionless", "-repeats", "-1", "-quiet"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%s: exited %d, want 2", name, code)
		}
	}
	// bernoulli:1 (total loss) is legal and must run to completion.
	if code := run([]string{"-sizes", "5", "-sd", "1", "-repeats", "1", "-channels", "bernoulli:1", "-quiet", "-out", filepath.Join(t.TempDir(), "x.jsonl")}); code != 0 {
		t.Error("bernoulli:1 rejected, want success")
	}
}

// TestCLIResumeRejectsDisorderedRows: a file that repeats or reorders
// cells was not written by one campaign run; -resume must exit 1 and
// leave it untouched rather than complete it into a file slpmerge
// rejects.
func TestCLIResumeRejectsDisorderedRows(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if code := run(sweepArgs(single)); code != 0 {
		t.Fatalf("full run exited %d", code)
	}
	lines := bytes.SplitAfter(readFile(t, single), []byte("\n"))
	for name, bad := range map[string][]byte{
		"duplicated row": bytes.Join([][]byte{lines[0], lines[0]}, nil),
		"swapped rows":   bytes.Join([][]byte{lines[2], lines[0]}, nil),
	} {
		path := filepath.Join(dir, "bad.jsonl")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run(sweepArgs(path, "-resume")); code != 1 {
			t.Errorf("%s: resume exited %d, want 1", name, code)
		}
		if got := readFile(t, path); !bytes.Equal(got, bad) {
			t.Errorf("%s: refused resume modified the file", name)
		}
	}
}

// TestCLIRejectsStrayArguments: flag stops at the first positional
// argument, so without a check "extra -repeats 99" would run with the
// flags before it and drop the rest. It must exit 2 naming the argument,
// before writing anything.
func TestCLIRejectsStrayArguments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.jsonl")
	for _, args := range [][]string{
		{"-sizes", "5", "-sd", "2", "-repeats", "1", "-quiet", "-out", out, "extra", "-repeats", "99"},
		{"-quiet", "-out", out, "extra"},
	} {
		code, stderr := stderrOf(t, args)
		if code != 2 {
			t.Errorf("slpsweep %v exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr, `unexpected argument "extra"`) {
			t.Errorf("slpsweep %v: stderr does not name the stray argument:\n%s", args, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("slpsweep %v created %s before refusing", args, out)
		}
	}
}

// stderrOf runs the CLI with args and returns its exit code and what it
// wrote to standard error.
func stderrOf(t *testing.T, args []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	code := run(args)
	os.Stderr = saved
	w.Close()
	msg, _ := io.ReadAll(r)
	r.Close()
	return code, string(msg)
}
