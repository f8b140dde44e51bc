package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestCLIRejectsStrayArguments: flag stops at the first positional
// argument and would drop it and every flag after it; the command must
// exit 2 with a message naming the argument instead.
func TestCLIRejectsStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"stray"},
		{"-size", "5", "stray"},
		{"-size", "5", "stray", "-seed", "2"},
	} {
		code, stderr := stderrOf(t, args)
		if code != 2 {
			t.Errorf("slpverify %v exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr, `unexpected argument "stray"`) {
			t.Errorf("slpverify %v: stderr does not name the stray argument:\n%s", args, stderr)
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
