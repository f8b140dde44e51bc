package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// captureStdout runs the CLI with args and returns what it printed to
// standard output and its exit code.
func captureStdout(t *testing.T, args []string) ([]byte, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	code := run(args)
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	return out, code
}

// TestCLIGoldens pins the stdout of every slpsim command that runs
// simulations through the experiment executor, byte for byte, at small
// sizes.
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
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			got, code := captureStdout(t, tc.args)
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
