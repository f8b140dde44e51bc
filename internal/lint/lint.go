// Package lint is slplint: a suite of custom static analyzers encoding
// this repository's simulation contracts — determinism of output order
// (mapiter), seed purity of all randomness (seedpurity), completeness of
// arena Reset methods (resetcomplete) and allocation discipline of
// annotated hot paths (hotpath). The runtime tests catch violations only
// on the configurations they exercise; the analyzers prove the contracts
// at the source level for every configuration at once.
//
// See DESIGN.md "Static invariants" for each analyzer's contract and its
// escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"slpdas/internal/lint/analysis"
	"slpdas/internal/lint/load"
)

// Analyzers returns the slplint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{MapIter, SeedPurity, ResetComplete, HotPath}
}

// simPackages are the packages whose code runs inside a simulation and
// must therefore be deterministic: every draw seed-derived, every output
// ordering independent of map iteration. The mapiter and seedpurity
// analyzers apply only here; resetcomplete and hotpath apply everywhere
// (they are driven by the code's own Reset methods and //slp:hotpath
// annotations).
var simPackages = map[string]bool{
	"slpdas/internal/core":       true,
	"slpdas/internal/des":        true,
	"slpdas/internal/radio":      true,
	"slpdas/internal/channel":    true,
	"slpdas/internal/energy":     true,
	"slpdas/internal/gcn":        true,
	"slpdas/internal/mac":        true,
	"slpdas/internal/protocol":   true,
	"slpdas/internal/attacker":   true,
	"slpdas/internal/topo":       true,
	"slpdas/internal/campaign":   true,
	"slpdas/internal/experiment": true,
	"slpdas/internal/schedule":   true,
	"slpdas/internal/wire":       true,
	"slpdas/internal/metrics":    true,
}

// IsSimPackage reports whether the mapiter/seedpurity determinism gates
// apply to the given import path.
func IsSimPackage(path string) bool { return simPackages[path] }

// simGated reports whether an analyzer is restricted to sim packages.
func simGated(a *analysis.Analyzer) bool {
	return a == MapIter || a == SeedPurity
}

// Finding is one reported violation.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Config selects what to check.
type Config struct {
	// Dir is the directory go list runs from (the module root or below).
	Dir string
	// Patterns are go package patterns; defaults to ./... when empty.
	Patterns []string
}

// Run loads the requested packages and applies the suite, returning every
// unsuppressed finding sorted by position. A non-nil error means the
// analysis could not run (load or type-check failure), not that findings
// exist.
func Run(cfg Config) ([]Finding, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := load.Load(cfg.Dir, patterns...)
	if err != nil {
		return nil, err
	}

	var findings []Finding
	for _, pkg := range prog.Targets {
		var suite []*analysis.Analyzer
		for _, a := range Analyzers() {
			if !simGated(a) || IsSimPackage(pkg.Path) {
				suite = append(suite, a)
			}
		}
		diags, err := check(suite, prog.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		findings = append(findings, diags...)
	}
	sortFindings(findings)
	return findings, nil
}

// RunAnalyzer applies one analyzer to an already-type-checked package
// through the driver's own path. The analysistest harness runs fixtures
// through it, so suppression is tested with production semantics.
func RunAnalyzer(a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	return check([]*analysis.Analyzer{a}, fset, files, pkg, info)
}

// check applies a suite of analyzers to one package and returns, sorted,
// every finding no //lint:ignore pragma suppresses, plus one for each
// malformed pragma.
func check(suite []*analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	var findings []Finding
	emit := func(name string, d analysis.Diagnostic) {
		pos := fset.Position(d.Pos)
		findings = append(findings, Finding{
			Analyzer: name,
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  d.Message,
		})
	}
	// Malformed pragmas are findings in their own right, attributed to a
	// pseudo-analyzer so they are never themselves suppressible.
	pragmas := indexPragmas(fset, files, func(d analysis.Diagnostic) { emit("pragma", d) })
	for _, a := range suite {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				if !pragmas.suppressed(fset, a.Name, d.Pos) {
					emit(a.Name, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by position, then analyzer.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
