package slpdas_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"slpdas/internal/experiment"
	"slpdas/internal/lint"
)

// TestLintCleanBeforeGoldens runs the slplint suite over the module before
// the golden comparisons below. The goldens catch a determinism break only
// on the exact configurations they replay; the analyzers prove the
// underlying invariants — no unsorted map iteration, no unseeded
// randomness, complete arena Resets — for every configuration at once, so
// a violation fails fast here with a source location instead of as an
// inscrutable golden byte diff.
func TestLintCleanBeforeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module closure; skipped in -short")
	}
	findings, err := lint.Run(".", "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("slplint: %s", f)
	}
	if t.Failed() {
		t.Fatal("fix or annotate the findings above before trusting the golden comparisons")
	}
}

// renderFig5a serialises a Figure 5 result the way the pre-rebuild
// `slpsim fig5a` pipeline did: the rendered table followed by every
// per-run capture outcome and attacker walk, in deterministic order.
func renderFig5a(tbl string, fig *experiment.Figure5) []byte {
	var buf bytes.Buffer
	buf.WriteString(tbl)
	for _, p := range fig.Points {
		for _, r := range p.ProtectionlessAgg.Results {
			fmt.Fprintf(&buf, "prot size=%d seed=%d captured=%v capAt=%v path=%v\n", p.GridSize, r.Seed, r.Captured, r.CaptureAt, r.AttackerPath)
		}
		for _, r := range p.SLPAgg.Results {
			fmt.Fprintf(&buf, "slp size=%d seed=%d captured=%v capAt=%v path=%v\n", p.GridSize, r.Seed, r.Captured, r.CaptureAt, r.AttackerPath)
		}
	}
	return buf.Bytes()
}

// TestFig5aBackwardCompatible pins the acceptance criterion of the
// attacker-subsystem rebuild: default single-attacker first-heard results
// must be byte-identical to the pre-rebuild `slpsim fig5a` pipeline. The
// golden file was generated at the last commit before the strategy
// registry and multi-attacker support landed; it captures the rendered
// figure table plus every per-run capture outcome and attacker walk.
// A diff here means the refactor perturbed the paper's evaluation.
func TestFig5aBackwardCompatible(t *testing.T) {
	want, err := os.ReadFile("testdata/fig5a_compat.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	fig, err := experiment.RunFigure5(experiment.Figure5Spec{GridSizes: []int{7, 11}, SearchDistance: 3, Repeats: 5, BaseSeed: 1})
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if got := renderFig5a(fig.Table().String(), fig); !bytes.Equal(got, want) {
		t.Errorf("fig5a output diverged from the pre-rebuild golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFig5aDeterministicAcrossWorkers pins the intra-cell parallel path
// on the figure pipeline: the Figure 5 evaluation must render
// byte-identical to the unchanged golden at 1, 2 and 8 workers, where
// each worker count partitions the per-size repeats differently across
// arenas. TestFig5aBackwardCompatible leaves Workers at GOMAXPROCS.
func TestFig5aDeterministicAcrossWorkers(t *testing.T) {
	want, err := os.ReadFile("testdata/fig5a_compat.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		fig, err := experiment.RunFigure5(experiment.Figure5Spec{
			GridSizes:      []int{7, 11},
			SearchDistance: 3,
			Repeats:        5,
			BaseSeed:       1,
			Workers:        workers,
		})
		if err != nil {
			t.Fatalf("RunFigure5(workers=%d): %v", workers, err)
		}
		if got := renderFig5a(fig.Table().String(), fig); !bytes.Equal(got, want) {
			t.Errorf("workers=%d fig5a output diverged from the golden:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}
