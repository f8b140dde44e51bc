package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"slpdas/internal/campaign"
)

// campaignArgs is a tiny real campaign (4 cells, 2 repeats of a 5×5 grid)
// used by the campaign tests; extra holds the per-test flags.
func campaignArgs(out string, extra ...string) []string {
	args := []string{"campaign", "-sizes", "5", "-sd", "1,2", "-repeats", "2", "-seed", "3", "-quiet", "-out", out}
	return append(args, extra...)
}

// exitCode runs the CLI with args and returns its exit code.
func exitCode(t *testing.T, args []string) int {
	t.Helper()
	_, _, code := capture(t, args)
	return code
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// TestCLICampaignGoldens pins the campaign CLI's bytes to the repository
// goldens that campaign.Run's own tests pin: the repeat-heavy sweep-compat
// campaign written to stdout, sharded three ways and merged, and resumed
// from a file cut mid-row; then the every-column campaign written to a CSV
// file and resumed from a cut copy.
func TestCLICampaignGoldens(t *testing.T) {
	dir := t.TempDir()
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from the golden:\n--- got ---\n%s\n--- want ---\n%s", what, got, want)
		}
	}
	mustRun := func(args []string) {
		t.Helper()
		if _, stderr, code := capture(t, args); code != 0 {
			t.Fatalf("slpsim %v exited %d:\n%s", args, code, stderr)
		}
	}
	resumeFrom := func(cut []byte, path string, args []string) {
		t.Helper()
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		mustRun(append(args, "-resume", "-out", path))
	}

	want := readFile(t, filepath.Join("..", "..", "testdata", "sweep_compat.golden"))
	sweep := []string{"campaign", "-sizes", "5,7", "-sd", "2", "-collisions", "false,true", "-repeats", "12", "-seed", "7", "-quiet"}
	stdout, _, code := capture(t, sweep)
	if code != 0 {
		t.Fatalf("slpsim %v exited %d", sweep, code)
	}
	same("single-process stdout", stdout, want)

	merge := []string{"merge", "-quiet", "-cells", "8", "-out", filepath.Join(dir, "merged.jsonl")}
	for _, i := range []string{"0", "1", "2"} {
		shard := filepath.Join(dir, "shard"+i+".jsonl")
		mustRun(append(sweep, "-shard", i+"/3", "-out", shard))
		merge = append(merge, shard)
	}
	mustRun(merge)
	same("3-way shard merge", readFile(t, filepath.Join(dir, "merged.jsonl")), want)

	partial := filepath.Join(dir, "partial.jsonl")
	resumeFrom(want[:2000], partial, sweep)
	same("resumed JSONL", readFile(t, partial), want)

	want = readFile(t, filepath.Join("..", "..", "testdata", "campaign_columns.csv.golden"))
	columns := []string{"campaign", "-sizes", "5", "-sd", "2", "-protocols", "protectionless,slp,phantom",
		"-channels", "logdist:2.4:4@sinr:3", "-faults", "none,churn:0.25:2,blackout:0.6@2",
		"-energy", "none,battery:8", "-repeats", "3", "-seed", "13", "-quiet"}
	all := filepath.Join(dir, "all.csv")
	mustRun(append(columns, "-out", all))
	same("every-column CSV", readFile(t, all), want)

	part := filepath.Join(dir, "part.csv")
	resumeFrom(want[:5000], part, columns)
	same("resumed CSV", readFile(t, part), want)
}

func TestCLIResumeAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if code := exitCode(t, campaignArgs(single)); code != 0 {
		t.Fatalf("full run exited %d", code)
	}
	want := readFile(t, single)

	// Tear at several points, including cutting the whole file away.
	for _, cut := range []int{0, 25, len(want) / 2, len(want) - 3} {
		torn := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(torn, want[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if code := exitCode(t, campaignArgs(torn, "-resume")); code != 0 {
			t.Fatalf("cut %d: resume exited %d", cut, code)
		}
		if got := readFile(t, torn); !bytes.Equal(got, want) {
			t.Errorf("cut %d: resumed file differs from uninterrupted run:\n%s\nvs\n%s", cut, got, want)
		}
	}

	// Resuming a finished file is a no-op that leaves it untouched.
	if code := exitCode(t, campaignArgs(single, "-resume")); code != 0 {
		t.Fatalf("no-op resume exited %d", code)
	}
	if got := readFile(t, single); !bytes.Equal(got, want) {
		t.Error("no-op resume modified a complete file")
	}

	// Resuming with mismatched flags must refuse the file rather than
	// silently mix two campaigns, and must leave it untouched.
	for name, args := range map[string][]string{
		"wrong seed":    {"campaign", "-sizes", "5", "-sd", "1,2", "-repeats", "2", "-seed", "99", "-quiet", "-resume", "-out", single},
		"wrong repeats": {"campaign", "-sizes", "5", "-sd", "1,2", "-repeats", "7", "-seed", "3", "-quiet", "-resume", "-out", single},
		"changed axes":  {"campaign", "-sizes", "5", "-sd", "1", "-repeats", "2", "-seed", "3", "-quiet", "-resume", "-out", single},
	} {
		if code := exitCode(t, args); code == 0 {
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
	if code := exitCode(t, campaignArgs(single)); code != 0 {
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
	if code := exitCode(t, campaignArgs(torn, "-resume")); code != 0 {
		t.Fatalf("resume exited %d", code)
	}
	if got := readFile(t, torn); !bytes.Equal(got, want) {
		t.Errorf("resumed csv differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// Torn before the header completes: the fresh header must be written.
	if err := os.WriteFile(torn, want[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(t, campaignArgs(torn, "-resume")); code != 0 {
		t.Fatalf("resume exited %d", code)
	}
	if got := readFile(t, torn); !bytes.Equal(got, want) {
		t.Errorf("header-torn resume differs from uninterrupted run")
	}
}

func TestCLIShardsTileTheMatrix(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if code := exitCode(t, campaignArgs(single)); code != 0 {
		t.Fatalf("full run exited %d", code)
	}
	seen := 0
	for i := 0; i < 3; i++ {
		out := filepath.Join(dir, "shard.jsonl")
		if code := exitCode(t, campaignArgs(out, "-shard", string(rune('0'+i))+"/3")); code != 0 {
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
	}
	if seen != 4 {
		t.Errorf("%d cells across shards, want 4", seen)
	}
}

// TestCLIFlagErrors: campaign refuses flag values it cannot honour. The
// floors and empty axis lists, each exiting 2 with the flag named, are
// rows of TestRunRejectsValuesSimConfigWouldReplace.
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
		if code := exitCode(t, append([]string{"campaign"}, args...)); code == 0 {
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
		if code := exitCode(t, append([]string{"campaign"}, args...)); code != 2 {
			t.Errorf("%s: exited %d, want 2", name, code)
		}
	}
	// bernoulli:1 (total loss) is legal and must run to completion, and
	// so is an empty -topologies, the documented "derive from -sizes".
	for name, args := range map[string][]string{
		"bernoulli:1":      {"-channels", "bernoulli:1"},
		"empty topologies": {"-topologies", ""},
	} {
		args = append([]string{"campaign", "-sizes", "5", "-sd", "1", "-repeats", "1", "-quiet", "-out", filepath.Join(t.TempDir(), "x.jsonl")}, args...)
		if code := exitCode(t, args); code != 0 {
			t.Errorf("%s rejected, want success", name)
		}
	}
}

// TestCLIRefusedCampaignKeepsOut: a campaign refused for a bad axis value
// or shard fails before it opens -out, so an earlier file there keeps its
// bytes, with and without -resume.
func TestCLIRefusedCampaignKeepsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "keep.jsonl")
	want := []byte("{\"earlier\":\"bytes\"}\n")
	for name, args := range map[string][]string{
		"protocol":      {"-protocols", "bogus"},
		"strategy":      {"-strategies", "bogus"},
		"channel":       {"-channels", "bogus"},
		"fault":         {"-faults", "bogus"},
		"energy":        {"-energy", "bogus"},
		"topology kind": {"-topologies", "torus:5"},
		"topology size": {"-topologies", "ring:2"},
		"shard":         {"-shard", "3/3"},
	} {
		for _, resume := range []bool{false, true} {
			if err := os.WriteFile(out, want, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append(campaignArgs(out), args...)
			if resume {
				args = append(args, "-resume")
			}
			if code := exitCode(t, args); code == 0 {
				t.Errorf("%s (resume %v): exited 0, want failure", name, resume)
			}
			if got := readFile(t, out); !bytes.Equal(got, want) {
				t.Errorf("%s (resume %v): -out holds %q, want its earlier %q", name, resume, got, want)
			}
		}
	}
}

// TestCLIResumeRejectsDisorderedRows: a file that repeats or reorders
// cells was not written by one campaign run; -resume must exit 1 and
// leave it untouched rather than complete it into a file merge rejects.
func TestCLIResumeRejectsDisorderedRows(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if code := exitCode(t, campaignArgs(single)); code != 0 {
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
		if code := exitCode(t, campaignArgs(path, "-resume")); code != 1 {
			t.Errorf("%s: resume exited %d, want 1", name, code)
		}
		if got := readFile(t, path); !bytes.Equal(got, bad) {
			t.Errorf("%s: refused resume modified the file", name)
		}
	}
}

// writeShards runs one small real campaign single-process and as n
// shards, writing each shard's JSONL next to the returned single output.
func writeShards(t *testing.T, dir string, n int) (single string, shards []string) {
	t.Helper()
	spec := campaign.Spec{GridSizes: []int{5}, SearchDistances: []int{1, 2}, Repeats: 2, BaseSeed: 3}
	render := func(path string, s campaign.Spec) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sink := campaign.NewJSONL(f)
		if _, err := campaign.Run(s, sink); err != nil {
			t.Fatalf("campaign: %v", err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("close sink: %v", err)
		}
	}
	single = filepath.Join(dir, "single.jsonl")
	render(single, spec)
	for i := 0; i < n; i++ {
		s := spec
		s.Shard = campaign.Shard{Index: i, Count: n}
		p := filepath.Join(dir, "shard"+string(rune('0'+i))+".jsonl")
		render(p, s)
		shards = append(shards, p)
	}
	return single, shards
}

func TestCLIMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	single, shards := writeShards(t, dir, 3)
	merged := filepath.Join(dir, "merged.jsonl")
	args := append([]string{"merge", "-quiet", "-out", merged, "-cells", "4"}, shards...)
	if code := exitCode(t, args); code != 0 {
		t.Fatalf("slpsim merge exited %d", code)
	}
	want, _ := os.ReadFile(single)
	got, _ := os.ReadFile(merged)
	if !bytes.Equal(got, want) {
		t.Errorf("merged differs from single-process output:\n%s\nvs\n%s", got, want)
	}
}

// TestCLIMergeFailures: merge fails on inputs that are not the shards of
// one campaign. A negative -cells and a flag after the shard files exit 2
// and are rows of TestRunRejectsValuesSimConfigWouldReplace.
func TestCLIMergeFailures(t *testing.T) {
	dir := t.TempDir()
	_, shards := writeShards(t, dir, 3)
	merged := filepath.Join(dir, "merged.jsonl")
	for name, args := range map[string][]string{
		"no inputs":       {"-quiet"},
		"missing file":    {"-quiet", filepath.Join(dir, "nope.jsonl")},
		"gap":             {"-quiet", "-out", merged, shards[0], shards[2]},
		"cells shortfall": append([]string{"-quiet", "-out", merged, "-cells", "9"}, shards...),
		"duplicate":       append([]string{"-quiet", "-out", merged, shards[0]}, shards...),
	} {
		if code := exitCode(t, append([]string{"merge"}, args...)); code == 0 {
			t.Errorf("%s: exited 0, want failure", name)
		}
	}
}

// TestCLIMergeRefusesToClobberInput: -out naming an input shard must be
// refused before the output is truncated — os.Create would otherwise
// destroy that shard's rows.
func TestCLIMergeRefusesToClobberInput(t *testing.T) {
	dir := t.TempDir()
	_, shards := writeShards(t, dir, 2)
	before, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if code := exitCode(t, []string{"merge", "-quiet", "-out", shards[0], shards[0], shards[1]}); code == 0 {
		t.Error("merge over an input exited 0, want refusal")
	}
	after, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused merge still truncated the input shard")
	}
}
