package lint

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestMapIter(t *testing.T)       { testFixture(t, mapIter) }
func TestSeedPurity(t *testing.T)    { testFixture(t, seedPurity) }
func TestResetComplete(t *testing.T) { testFixture(t, resetComplete) }
func TestHotPath(t *testing.T)       { testFixture(t, hotPath) }

// wantRe matches one expectation clause of a fixture comment: `want "re"`
// expects a finding matching re on the comment's line, and a signed
// offset, `want-1 "re"`, one on a nearby line — which is how a fixture
// pins a finding on a line that cannot carry a comment of its own, such
// as a malformed pragma's. Several clauses may share one comment.
var wantRe = regexp.MustCompile(`want([+-][0-9]+)?[ \t]+"([^"]*)"`)

// testFixture loads the fixture package ./testdata/<a.name> through the
// same loader Run uses, runs a alone through Run's check, so pragma
// suppression behaves as in production, and fails on every finding no
// want clause expects and every want clause no finding matches. A want
// matches the message or Finding.String's trailing "[analyzer]" tag.
func testFixture(t *testing.T, a *analyzer) {
	targets, err := load(".", "./testdata/"+a.name)
	if err != nil {
		t.Fatal(err)
	}
	fx := targets[0]
	wants := map[string][]*regexp.Regexp{} // "file:line" -> unmatched wants
	for _, f := range fx.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fx.fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					offset, _ := strconv.Atoi(m[1])
					at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line+offset)
					wants[at] = append(wants[at], regexp.MustCompile(m[2]))
				}
			}
		}
	}
	for _, f := range check([]*analyzer{a}, fx) {
		at := fmt.Sprintf("%s:%d", f.File, f.Line)
		i := slices.IndexFunc(wants[at], func(re *regexp.Regexp) bool {
			return re.MatchString(f.Message + " [" + f.Analyzer + "]")
		})
		if i < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[at] = slices.Delete(wants[at], i, i+1)
	}
	for at, res := range wants {
		for _, re := range res {
			t.Errorf("%s: expected finding matching %q, got none", at, re)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "mapiter", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	if got, want := f.String(), "x.go:3:7: boom [mapiter]"; got != want {
		t.Fatalf("Finding.String: got %q, want %q", got, want)
	}
}

func TestIsSimPackage(t *testing.T) {
	if !simPackages["slpdas/internal/core"] {
		t.Fatal("internal/core must be determinism-gated")
	}
	if simPackages["slpdas/internal/xrand"] {
		t.Fatal("internal/xrand is the randomness authority, not a gated consumer")
	}
	if simPackages["slpdas/internal/lint"] {
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
	findings, err := Run("../..", "./...")
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
