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
		code, _, stderr := outputOf(t, args)
		if code != 2 {
			t.Errorf("slpverify %v exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr, `unexpected argument "stray"`) {
			t.Errorf("slpverify %v: stderr does not name the stray argument:\n%s", args, stderr)
		}
	}
}

// TestCLIProtocolNames: -protocol takes every name `slpsim run -protocol`
// takes, the slp alias included, and an unknown name exits 2 naming it.
func TestCLIProtocolNames(t *testing.T) {
	outputs := map[string]string{}
	for _, c := range []struct {
		name string
		code int
	}{
		{"protectionless", 0},
		{"slp", 0},
		{"slp-das", 0},
		{"phantom", 0},
		{"fake-source", 0},
		{"tier", 0},
		{"bogus", 2},
	} {
		code, stdout, stderr := outputOf(t, []string{"-size", "5", "-protocol", c.name})
		if code != c.code {
			t.Errorf("slpverify -protocol %s exited %d, want %d; stderr:\n%s", c.name, code, c.code, stderr)
			continue
		}
		if c.code != 0 {
			if !strings.Contains(stderr, `unknown protocol "`+c.name+`"`) {
				t.Errorf("slpverify -protocol %s: stderr does not name the protocol:\n%s", c.name, stderr)
			}
			continue
		}
		if !strings.Contains(stdout, "VerifySchedule(") {
			t.Errorf("slpverify -protocol %s: output lacks %q:\n%s", c.name, "VerifySchedule(", stdout)
		}
		outputs[c.name] = stdout
	}
	if outputs["slp"] != outputs["slp-das"] {
		t.Errorf("-protocol slp and -protocol slp-das differ:\n%s\nvs\n%s", outputs["slp"], outputs["slp-das"])
	}
}

// outputOf runs the CLI with args and returns its exit code and what it
// wrote to standard output and standard error.
func outputOf(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	done := make(chan string)
	go func() {
		msg, _ := io.ReadAll(outR)
		done <- string(msg)
	}()
	code = run(args)
	os.Stdout, os.Stderr = savedOut, savedErr
	outW.Close()
	errW.Close()
	stdout = <-done
	msg, _ := io.ReadAll(errR)
	outR.Close()
	errR.Close()
	return code, stdout, string(msg)
}
