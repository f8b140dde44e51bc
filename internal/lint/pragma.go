package lint

import (
	"bytes"
	"go/ast"
	"go/token"
	"strings"
)

// Pragma escape hatches. Each analyzer encodes a contract with legitimate
// exceptions; the exceptions are annotated in the source so they are
// visible in review and greppable later:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// suppresses the named analyzers' findings on the same line, or — when the
// pragma stands on its own line — on the line directly below it. The
// reason is mandatory: a suppression nobody can justify is a finding.
//
//	// lint:immutable[: <reason>]
//
// on a struct field declaration exempts that field from the resetcomplete
// contract: the field is wiring or cross-run state that Reset deliberately
// preserves.
const (
	ignorePragma    = "lint:ignore"
	immutablePragma = "lint:immutable"
)

// ignoreSite is one parsed //lint:ignore pragma.
type ignoreSite struct {
	analyzers map[string]bool
	ownLine   bool // pragma is alone on its line: applies to the next line
}

// pragmaIndex maps file -> line -> pragma for one package's files.
type pragmaIndex map[*token.File]map[int]ignoreSite

// indexPragmas scans every comment of every file of t for //lint:ignore
// pragmas. Malformed pragmas (no analyzer list or no reason) are reported
// as findings themselves via report, so they cannot silently suppress
// nothing.
func indexPragmas(t *target, report func(pos token.Pos, msg string)) pragmaIndex {
	idx := pragmaIndex{}
	for i, f := range t.files {
		tf := t.fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePragma) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePragma))
				parts := strings.Fields(rest)
				if len(parts) < 2 {
					report(c.Pos(), "malformed //lint:ignore pragma: want //lint:ignore <analyzer>[,<analyzer>] <reason>")
					continue
				}
				site := ignoreSite{analyzers: map[string]bool{}}
				for _, name := range strings.Split(parts[0], ",") {
					site.analyzers[strings.TrimSpace(name)] = true
				}
				pos := t.fset.Position(c.Pos())
				// The pragma is "own line" when nothing but whitespace
				// precedes it on its line.
				src := t.src[i][:pos.Offset]
				site.ownLine = len(bytes.TrimSpace(src[bytes.LastIndexByte(src, '\n')+1:])) == 0
				if idx[tf] == nil {
					idx[tf] = map[int]ignoreSite{}
				}
				idx[tf][pos.Line] = site
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic of analyzer name at pos is
// covered by an ignore pragma on its line or the line above.
func (idx pragmaIndex) suppressed(fset *token.FileSet, name string, pos token.Pos) bool {
	tf := fset.File(pos)
	if tf == nil {
		return false
	}
	lines := idx[tf]
	if lines == nil {
		return false
	}
	line := fset.Position(pos).Line
	if site, ok := lines[line]; ok && site.analyzers[name] {
		return true
	}
	if site, ok := lines[line-1]; ok && site.ownLine && site.analyzers[name] {
		return true
	}
	return false
}

// hasImmutableMark reports whether a struct field carries the
// lint:immutable annotation in its doc or trailing comment.
func hasImmutableMark(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, immutablePragma) {
				return true
			}
		}
	}
	return false
}
