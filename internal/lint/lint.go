// Package lint is slplint: a suite of custom static analyzers encoding
// this repository's simulation contracts — determinism of output order
// (mapiter), seed purity of all randomness (seedpurity), completeness of
// arena Reset methods (resetcomplete) and allocation discipline of
// annotated hot paths (hotpath). The runtime tests catch violations only
// on the configurations they exercise; the analyzers prove the contracts
// at the source level for every configuration at once.
//
// The suite uses only the standard library: `go list -deps` enumerates
// the packages and go/types checks them from source, so the linter adds
// no module dependencies. See DESIGN.md "Static invariants" for each
// analyzer's contract and its escape hatch.
package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// analyzer is one static check: the name used in findings and in
// //lint:ignore pragmas, and the check itself, run once per package.
type analyzer struct {
	name string
	run  func(*pass)
}

// pass is one analyzer's view of one type-checked package.
type pass struct {
	*target
	report func(pos token.Pos, msg string)
}

// reportf reports a formatted finding at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// typeOf returns the type of e, or nil if unknown.
func (p *pass) typeOf(e ast.Expr) types.Type { return p.info.TypeOf(e) }

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
	"slpdas/internal/protocol":   true,
	"slpdas/internal/attacker":   true,
	"slpdas/internal/topo":       true,
	"slpdas/internal/campaign":   true,
	"slpdas/internal/experiment": true,
	"slpdas/internal/schedule":   true,
	"slpdas/internal/wire":       true,
	"slpdas/internal/metrics":    true,
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

// Run loads the packages that patterns (default ./...) name relative to
// dir and applies the suite, returning every unsuppressed finding sorted
// by position. A non-nil error means the analysis could not run (load or
// type-check failure), not that findings exist.
func Run(dir string, patterns ...string) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, t := range targets {
		suite := []*analyzer{resetComplete, hotPath}
		if simPackages[t.pkg.Path()] {
			suite = []*analyzer{mapIter, seedPurity, resetComplete, hotPath}
		}
		findings = append(findings, check(suite, t)...)
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	return findings, nil
}

// check applies a suite of analyzers to one package and returns every
// finding no //lint:ignore pragma suppresses, plus one for each malformed
// pragma.
func check(suite []*analyzer, t *target) []Finding {
	var findings []Finding
	emit := func(name string, pos token.Pos, msg string) {
		p := t.fset.Position(pos)
		findings = append(findings, Finding{Analyzer: name, File: p.Filename, Line: p.Line, Col: p.Column, Message: msg})
	}
	// Malformed pragmas are findings in their own right, attributed to a
	// pseudo-analyzer so they are never themselves suppressible.
	pragmas := indexPragmas(t, func(pos token.Pos, msg string) { emit("pragma", pos, msg) })
	for _, a := range suite {
		a.run(&pass{target: t, report: func(pos token.Pos, msg string) {
			if !pragmas.suppressed(t.fset, a.name, pos) {
				emit(a.name, pos, msg)
			}
		}})
	}
	return findings
}

// target is one loaded package that a pattern names: its parsed non-test
// files with comments, the source bytes each was parsed from, and its
// type information.
type target struct {
	fset  *token.FileSet
	files []*ast.File
	src   [][]byte // src[i] is the source of files[i]
	pkg   *types.Package
	info  *types.Info
}

// load enumerates patterns relative to dir with `go list -deps`, the one
// authority on build constraints, file lists and dependency order, then
// parses and type-checks every listed package from source in that order.
// It returns the packages the patterns name, in go list order; the rest
// of the import closure is checked only to resolve their imports.
func load(dir string, patterns ...string) ([]*target, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,DepOnly,Error"}, patterns...)...)
	cmd.Dir = dir
	// CGO off: the simulator has no cgo, and from-source type-checking
	// must not see cgo-generated files.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("load: package %q not in the type-checked closure", path)
	})}
	var targets []*target
	for dec := json.NewDecoder(&stdout); ; {
		var lp struct {
			ImportPath, Dir string
			GoFiles         []string
			DepOnly         bool
			Error           *struct{ Err string }
		}
		if err := dec.Decode(&lp); err == io.EOF {
			return targets, nil
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			// Assembly- or test-only package; nothing to check.
			if !lp.DepOnly {
				continue
			}
			return nil, fmt.Errorf("load: %s: no Go files", lp.ImportPath)
		}
		t := &target{fset: fset}
		if !lp.DepOnly {
			// Only the targets are analysed; the closure needs no maps.
			t.info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Implicits:  map[ast.Node]types.Object{},
				Instances:  map[*ast.Ident]types.Instance{},
			}
		}
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			t.files, t.src = append(t.files, f), append(t.src, src)
		}
		// A type error anywhere is a hard stop: analyzers must never run
		// over partial type information.
		pkg, err := conf.Check(lp.ImportPath, fset, t.files, t.info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		if !lp.DepOnly {
			t.pkg = pkg
			targets = append(targets, t)
		}
	}
}

// importerFunc resolves imports with a function.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
