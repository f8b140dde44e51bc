package lint_test

import (
	"strings"
	"testing"

	"slpdas/internal/lint"
	"slpdas/internal/lint/analysistest"
)

func TestMapIter(t *testing.T) {
	analysistest.Run(t, lint.MapIter, "testdata/mapiter", "sort")
}

func TestSeedPurity(t *testing.T) {
	analysistest.Run(t, lint.SeedPurity, "testdata/seedpurity",
		"time", "math/rand", "math/rand/v2", "crypto/rand")
}

func TestResetComplete(t *testing.T) {
	analysistest.Run(t, lint.ResetComplete, "testdata/resetcomplete")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, lint.HotPath, "testdata/hotpath", "fmt")
}

func TestFindingString(t *testing.T) {
	f := lint.Finding{Analyzer: "mapiter", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	if got, want := f.String(), "x.go:3:7: boom [mapiter]"; got != want {
		t.Fatalf("Finding.String: got %q, want %q", got, want)
	}
}

func TestIsSimPackage(t *testing.T) {
	if !lint.IsSimPackage("slpdas/internal/core") {
		t.Fatal("internal/core must be determinism-gated")
	}
	if lint.IsSimPackage("slpdas/internal/xrand") {
		t.Fatal("internal/xrand is the randomness authority, not a gated consumer")
	}
	if lint.IsSimPackage("slpdas/internal/lint") {
		t.Fatal("the linter itself is not simulation code")
	}
}

// TestSuiteCleanOnOwnRepo is the self-hosting gate: the analyzers must
// pass over the whole module, so a regression in either the tree or an
// analyzer's precision fails here before CI's slplint job runs.
func TestSuiteCleanOnOwnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module closure; skipped in -short")
	}
	findings, err := lint.Run(lint.Config{Dir: "../..", Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(findings) > 0 {
		var b strings.Builder
		for _, f := range findings {
			b.WriteString("\n  " + f.String())
		}
		t.Fatalf("slplint must be clean on its own repository; findings:%s", b.String())
	}
}
