package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestExitCodes pins the three exit statuses CI and scripts rely on: 0
// and silence on a clean package, 1 with one finding line each on a dirty
// one, 2 when the packages cannot be loaded.
func TestExitCodes(t *testing.T) {
	finding := regexp.MustCompile(`^\S+\.go:\d+:\d+: .+ \[hotpath\]$`)
	for pattern, want := range map[string]int{".": 0, "../../internal/lint/testdata/hotpath": 1, "./no-such-package": 2} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{pattern}, &stdout, &stderr); code != want {
			t.Errorf("slplint %s: exit %d, want %d; stderr:\n%s", pattern, code, want, stderr.String())
		}
		if want == 0 && stdout.Len()+stderr.Len() > 0 {
			t.Errorf("slplint %s printed output on a clean package:\n%s%s", pattern, stdout.String(), stderr.String())
		}
		for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
			if want == 1 && !finding.MatchString(line) {
				t.Errorf("slplint %s: line %q is not file:line:col: message [hotpath]", pattern, line)
			}
		}
	}
}
