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

// TestCLIGoldens pins the stdout of every slpsim command that runs
// simulations through the experiment executor, byte for byte, at small
// sizes, and of the protocol and strategy listings.
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
// stop at and drop with every flag after it, fails every command with
// exit 2 and a message naming it.
func TestCLIRejectsStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"fig5a", "-sizes", "5", "-repeats", "1", "stray"},
		{"fig5b", "stray", "-repeats", "1"},
		{"overhead", "-size", "5", "stray"},
		{"sweep", "-what", "sd", "stray"},
		{"run", "-size", "5", "-repeats", "1", "stray", "-repeats", "99"},
		{"table1", "stray"},
		{"protocols", "stray"},
		{"strategies", "stray"},
	} {
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
	}
}

// TestRunRejectsValuesSimConfigWouldReplace: a size, repeat count, search
// distance or attacker R/M that SimConfig would silently replace with its
// default exits 2 naming the flag, instead of simulating a different run
// than the header reports.
func TestRunRejectsValuesSimConfigWouldReplace(t *testing.T) {
	for flagName, args := range map[string][]string{
		"-size":       {"run", "-size", "0"},
		"-repeats":    {"run", "-size", "5", "-repeats", "0"},
		"-sd":         {"run", "-size", "5", "-protocol", "slp-das", "-sd", "0"},
		"-attacker R": {"run", "-size", "5", "-attacker", "0,0,1"},
		"-attacker M": {"run", "-size", "5", "-attacker", "1,0,0"},
	} {
		stdout, stderr, code := capture(t, args)
		if code != 2 {
			t.Errorf("slpsim %v exited %d, want 2", args, code)
		}
		if !strings.Contains(string(stderr), flagName+" must be at least") {
			t.Errorf("slpsim %v: stderr does not name %s:\n%s", args, flagName, stderr)
		}
		if len(stdout) != 0 {
			t.Errorf("slpsim %v printed before refusing:\n%s", args, stdout)
		}
	}
	// The size floor is 2, not 1.
	if _, _, code := capture(t, []string{"run", "-size", "1"}); code != 2 {
		t.Errorf("slpsim run -size 1 exited %d, want 2", code)
	}
}
