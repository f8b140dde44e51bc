package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// capture runs the CLI with args and returns what it printed to standard
// output and standard error, and its exit code.
func capture(t *testing.T, args []string) (stdout, stderr []byte, code int) {
	t.Helper()
	redirect := func(f **os.File) (restore func() []byte) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		saved := *f
		*f = w
		done := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(r)
			done <- b
		}()
		return func() []byte {
			*f = saved
			w.Close()
			out := <-done
			r.Close()
			return out
		}
	}
	restoreOut, restoreErr := redirect(&os.Stdout), redirect(&os.Stderr)
	code = run(args)
	return restoreOut(), restoreErr(), code
}

// TestCLIGoldens pins the stdout of every slpsim command that simulates,
// byte for byte, at small sizes, and of Table I and the protocol and
// strategy listings.
func TestCLIGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig5a", []string{"fig5a", "-sizes", "5,7", "-repeats", "3"}},
		{"fig5b", []string{"fig5b", "-sizes", "5,7", "-repeats", "3"}},
		{"overhead", []string{"overhead", "-size", "5", "-repeats", "3"}},
		{"sweep_sd", []string{"sweep", "-what", "sd", "-size", "5", "-repeats", "2"}},
		{"sweep_strategy", []string{"sweep", "-what", "strategy", "-size", "5", "-repeats", "2"}},
		{"sweep_loss", []string{"sweep", "-what", "loss", "-size", "5", "-repeats", "2"}},
		{"run", []string{"run", "-size", "5", "-repeats", "3"}},
		{"run_team", []string{"run", "-size", "5", "-protocol", "slp", "-repeats", "3", "-channel", "bernoulli:0.05",
			"-strategy", "cautious", "-nattackers", "2", "-shared-history"}},
		{"topo_stats", []string{"topo", "-size", "5", "-show", "stats"}},
		{"topo_hops", []string{"topo", "-size", "5", "-show", "hops"}},
		{"topo_slots", []string{"topo", "-size", "7", "-protocol", "slp-das", "-show", "slots"}},
		{"topo_walk", []string{"topo", "-size", "7", "-show", "walk"}},
		{"verify", []string{"verify", "-size", "7", "-seed", "3"}},
		{"verify_map", []string{"verify", "-size", "7", "-protocol", "protectionless", "-map"}},
		{"verify_counterexample", []string{"verify", "-size", "5", "-decision", "any", "-attacker", "2,1,2"}},
		{"table1", []string{"table1"}},
		{"protocols", []string{"protocols"}},
		{"strategies", []string{"strategies"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			got, _, code := capture(t, tc.args)
			if code != 0 {
				t.Fatalf("slpsim %v exited %d", tc.args, code)
			}
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("slpsim %v output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, got, want)
			}
		})
	}
}

// TestRunRejectsFaultOnMissingNode: a fail: spec naming a node the topology
// lacks stops the run with an error that names the node, instead of
// simulating a fault that cannot happen.
func TestRunRejectsFaultOnMissingNode(t *testing.T) {
	args := []string{"run", "-size", "5", "-repeats", "1", "-faults", "fail:25@0s"}
	_, stderr, code := capture(t, args)
	if code == 0 {
		t.Fatalf("slpsim %v exited 0", args)
	}
	if !strings.Contains(string(stderr), "node 25") {
		t.Errorf("slpsim %v: error does not name node 25:\n%s", args, stderr)
	}
}

// TestCLIRejectsStrayArguments: a positional argument, which flag would
// stop at and drop with every flag after it, fails every command but
// merge with exit 2 and a message naming it, before any output file is
// written. Each command is its own subtest.
func TestCLIRejectsStrayArguments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.jsonl")
	for _, c := range []struct {
		cmd  string
		rows [][]string
	}{
		{"fig5a", [][]string{{"-sizes", "5", "-repeats", "1", "stray"}}},
		{"fig5b", [][]string{{"stray", "-repeats", "1"}}},
		{"overhead", [][]string{{"-size", "5", "stray"}}},
		{"sweep", [][]string{{"-what", "sd", "stray"}}},
		{"run", [][]string{{"-size", "5", "-repeats", "1", "stray", "-repeats", "99"}}},
		{"topo", [][]string{{"stray"}, {"-size", "5", "stray"}, {"-size", "5", "stray", "-seed", "2"}}},
		{"verify", [][]string{{"stray"}, {"-size", "5", "stray"}, {"-size", "5", "stray", "-seed", "2"}}},
		{"campaign", [][]string{{"-sizes", "5", "-sd", "2", "-repeats", "1", "-quiet", "-out", out, "stray", "-repeats", "99"},
			{"-quiet", "-out", out, "stray"}}},
		{"table1", [][]string{{"stray"}}},
		{"protocols", [][]string{{"stray"}}},
		{"strategies", [][]string{{"stray"}}},
	} {
		t.Run(c.cmd, func(t *testing.T) {
			for _, row := range c.rows {
				args := append([]string{c.cmd}, row...)
				stdout, stderr, code := capture(t, args)
				if code != 2 {
					t.Errorf("slpsim %v exited %d, want 2", args, code)
				}
				if !strings.Contains(string(stderr), `unexpected argument "stray"`) {
					t.Errorf("slpsim %v: stderr does not name the stray argument:\n%s", args, stderr)
				}
				if len(stdout) != 0 {
					t.Errorf("slpsim %v printed before refusing:\n%s", args, stdout)
				}
				if _, err := os.Stat(out); !os.IsNotExist(err) {
					t.Errorf("slpsim %v created %s before refusing", args, out)
				}
			}
		})
	}
}

// TestRunRejectsValuesSimConfigWouldReplace: a flag value the command
// cannot honour, one the run's config would silently replace with its
// default, or a flag the command's output does not depend on, exits 2
// naming the flag instead of simulating a different run than the header
// reports. run, topo and verify share the simulation flags, so each
// shared check is exercised through all three. campaign and merge refuse
// before writing their output file.
func TestRunRejectsValuesSimConfigWouldReplace(t *testing.T) {
	type row struct {
		args []string
		msg  string
	}
	out := filepath.Join(t.TempDir(), "x.jsonl")
	campaign := func(flags ...string) []string {
		return append(append([]string{"campaign"}, flags...), "-out", out)
	}
	rows := []row{
		{[]string{"run", "-size", "5", "-repeats", "0"}, "-repeats must be at least 1"},
		{[]string{"verify", "-size", "5", "-delta", "-3"}, "-delta must be at least 0"},
		{[]string{"verify", "-size", "5", "-decision", "bogus"}, `unknown -decision "bogus"`},
		{[]string{"topo", "-size", "5", "-show", "bogus"}, `unknown -show "bogus"`},
		{[]string{"sweep", "-what", "bogus"}, `unknown -what "bogus"`},
		{[]string{"fig5a", "-sizes", "5,x", "-repeats", "1"}, `fig5a: -sizes: bad integer "x"`},
		{[]string{"fig5b", "-sizes", "5,x", "-repeats", "1"}, `fig5b: -sizes: bad integer "x"`},
		// Values below a floor, refused before the header prints.
		{[]string{"fig5a", "-repeats", "0", "-sizes", "5"}, "fig5a: -repeats must be at least 1"},
		{[]string{"fig5b", "-sizes", "5,1", "-repeats", "1"}, "fig5b: -sizes must be at least 2, got 1"},
		{[]string{"overhead", "-size", "1", "-repeats", "1"}, "overhead: -size must be at least 2"},
		{[]string{"overhead", "-sd", "0", "-size", "5", "-repeats", "1"}, "overhead: -sd must be at least 1"},
		{[]string{"overhead", "-size", "5", "-repeats", "0"}, "overhead: -repeats must be at least 1"},
		{[]string{"sweep", "-what", "sd", "-size", "1", "-repeats", "1"}, "sweep: -size must be at least 2"},
		{[]string{"sweep", "-what", "loss", "-size", "5", "-sd", "0", "-repeats", "1"}, "sweep: -sd must be at least 1"},
		{[]string{"sweep", "-what", "sd", "-size", "5", "-repeats", "0"}, "sweep: -repeats must be at least 1"},
		{[]string{"sweep", "-what", "attacker", "-size", "5", "-repeats", "0"}, "sweep: -repeats has no effect: -what attacker checks each attacker exhaustively, once"},
		// Flags the command's output does not depend on.
		{[]string{"topo", "-size", "5", "-seed", "3"}, "-seed has no effect: -show stats reads only -size"},
		{[]string{"topo", "-size", "5", "-show", "stats", "-protocol", "slp"}, "-protocol has no effect"},
		{[]string{"topo", "-size", "5", "-show", "hops", "-channel", "bernoulli:0.9"}, "-channel has no effect: -show hops reads only -size"},
		{[]string{"topo", "-size", "5", "-show", "hops", "-faults", "churn:0.5:1"}, "-faults has no effect"},
		{[]string{"verify", "-size", "5", "-strategy", "cautious"}, "-strategy has no effect"},
		{[]string{"verify", "-size", "5", "-nattackers", "2"}, "-nattackers has no effect"},
		{[]string{"verify", "-size", "5", "-shared-history"}, "-shared-history has no effect"},
		{[]string{"sweep", "-what", "attacker", "-size", "5", "-repeats", "7"}, "sweep: -repeats has no effect: -what attacker checks each attacker exhaustively, once"},
		{[]string{"sweep", "-what", "sd", "-size", "5", "-repeats", "2", "-sd", "5"}, "sweep: -sd has no effect: -what sd sweeps the search distance from 1 to 7"},
		{[]string{"sweep", "-sd", "3", "-size", "5", "-repeats", "2"}, "sweep: -sd has no effect"},
		{[]string{"fig5a", "-sizes", ",", "-repeats", "1"}, "fig5a: -sizes: empty list"},
		// campaign's floors: below them campaign.Spec would replace the
		// value with its default, or the engine would fail without
		// naming the flag.
		{campaign("-nattackers", "0"), "campaign: -nattackers must be at least 1, got 0"},
		{campaign("-nattackers", "1,-2"), "campaign: -nattackers must be at least 1, got -2"},
		{campaign("-sizes", "1"), "campaign: -sizes must be at least 2, got 1"},
		{campaign("-sizes", "5,x"), `campaign: -sizes: bad integer "x"`},
		{campaign("-sd", "0"), "campaign: -sd must be at least 1, got 0"},
		{campaign("-attackers", "0,0,0"), "campaign: -attackers R must be at least 1, got 0"},
		{campaign("-attackers", "1,0,1;2,1,0"), "campaign: -attackers M must be at least 1, got 0"},
		{campaign("-attackers", "1,0,1,5"), `campaign: -attackers: bad attacker tuple "1,0,1,5"`},
		{campaign("-workers", "-3"), "campaign: -workers must be at least 0, got -3"},
		{campaign("-checkpoint", "-1"), "campaign: -checkpoint must be at least 0, got -1"},
		{campaign("-repeats", "0"), "campaign: -repeats must be at least 1, got 0"},
		{campaign("-collisions", "maybe"), `campaign: -collisions: bad value "maybe"`},
		{campaign("-topologies", "line"), `campaign: -topologies: bad topology "line"`},
		{campaign("-format", "xml"), `campaign: unknown -format "xml"`},
		{campaign("-shard", "1"), `campaign: -shard: bad shard "1"`},
		{[]string{"campaign", "-resume"}, "campaign: -resume requires -out"},
		// merge's input errors.
		{[]string{"merge", "-cells", "-1", "a.jsonl"}, "merge: -cells must be at least 0, got -1"},
		{[]string{"merge", "a.jsonl", "-out", out}, `merge: unexpected argument "-out"`},
		{[]string{"merge", "-quiet"}, "merge: no shard files given"},
	}
	// An empty list on any campaign axis would run the default axis.
	for _, axis := range []string{"sizes", "topologies", "protocols", "sd", "strategies", "nattackers",
		"shared-history", "channels", "collisions", "faults", "energy"} {
		rows = append(rows, row{campaign("-"+axis, ","), "campaign: -" + axis + ": empty list"})
	}
	rows = append(rows, row{campaign("-attackers", " ; "), "campaign: -attackers: empty list"})
	for _, cmd := range []string{"run", "topo", "verify"} {
		for _, r := range []row{
			{[]string{"-size", "5", "-protocol", "bogus"}, `unknown protocol "bogus"`},
			{[]string{"-size", "0"}, "-size must be at least 2"},
			{[]string{"-size", "1"}, "-size must be at least 2"},
			{[]string{"-size", "5", "-protocol", "slp-das", "-sd", "0"}, "-sd must be at least 1"},
			{[]string{"-size", "5", "-attacker", "0,0,1"}, "-attacker R must be at least 1"},
			{[]string{"-size", "5", "-attacker", "1,0,0"}, "-attacker M must be at least 1"},
			{[]string{"-size", "5", "-attacker", "1,0,1,5"}, `bad attacker tuple "1,0,1,5"`},
			{[]string{"-size", "5", "-nattackers", "0"}, "-nattackers must be at least 1"},
			{[]string{"-size", "5", "-nattackers", "-1"}, "-nattackers must be at least 1"},
		} {
			rows = append(rows, row{append([]string{cmd}, r.args...), r.msg})
		}
	}
	for _, r := range rows {
		stdout, stderr, code := capture(t, r.args)
		if code != 2 {
			t.Errorf("slpsim %v exited %d, want 2", r.args, code)
		}
		if !strings.Contains(string(stderr), r.msg) {
			t.Errorf("slpsim %v: stderr lacks %q:\n%s", r.args, r.msg, stderr)
		}
		if len(stdout) != 0 {
			t.Errorf("slpsim %v printed before refusing:\n%s", r.args, stdout)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("slpsim %v created %s before refusing", r.args, out)
		}
	}
}

// TestCLIHelpExitsZero: -h prints a command's flags and exits 0, like
// 'slpsim -h', without an error line. Each command is its own subtest.
func TestCLIHelpExitsZero(t *testing.T) {
	for _, cmd := range []string{"fig5a", "fig5b", "table1", "overhead", "sweep", "run", "topo", "verify", "campaign", "merge", "protocols", "strategies"} {
		t.Run(cmd, func(t *testing.T) {
			stdout, stderr, code := capture(t, []string{cmd, "-h"})
			if code != 0 {
				t.Errorf("slpsim %s -h exited %d, want 0", cmd, code)
			}
			if !strings.Contains(string(stderr), "Usage of "+cmd+":") || strings.Contains(string(stderr), "slpsim:") {
				t.Errorf("slpsim %s -h: stderr is not the flag usage alone:\n%s", cmd, stderr)
			}
			if len(stdout) != 0 {
				t.Errorf("slpsim %s -h printed to stdout:\n%s", cmd, stdout)
			}
		})
	}
}

// TestCLIProtocolNames: run, topo and verify take every name 'slpsim
// protocols' lists and the slp alias, which renders exactly as slp-das.
// Each command is its own subtest; the unknown-name exit 2 is a row of
// TestRunRejectsValuesSimConfigWouldReplace.
func TestCLIProtocolNames(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // a line every successful run prints
	}{
		{[]string{"run", "-size", "5", "-repeats", "1"}, "capture ratio"},
		{[]string{"topo", "-size", "5", "-show", "slots"}, " slot assignment"},
		{[]string{"verify", "-size", "5"}, "VerifySchedule("},
	} {
		t.Run(c.args[0], func(t *testing.T) {
			outputs := map[string]string{}
			for _, name := range []string{"protectionless", "slp", "slp-das", "phantom", "fake-source", "tier"} {
				args := append(c.args[:len(c.args):len(c.args)], "-protocol", name)
				stdout, stderr, code := capture(t, args)
				if code != 0 {
					t.Errorf("slpsim %v exited %d; stderr:\n%s", args, code, stderr)
				}
				if !strings.Contains(string(stdout), c.want) {
					t.Errorf("slpsim %v: output lacks %q:\n%s", args, c.want, stdout)
				}
				outputs[name] = string(stdout)
			}
			if c.args[0] == "run" {
				return // run's header echoes the name as given
			}
			if outputs["slp"] != outputs["slp-das"] {
				t.Errorf("slpsim %s: -protocol slp and -protocol slp-das differ:\n%s\nvs\n%s", c.args[0], outputs["slp"], outputs["slp-das"])
			}
		})
	}
}
