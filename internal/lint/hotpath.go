package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotPathMark is the doc-comment annotation naming a function part of a
// zero-allocs/op steady-state path (the Broadcast→delivery fan-out, the
// DES runner scheduling, the GCN dispatch loop). The AllocFree package
// tests (des, radio, protocol, core) gate these paths at 0 allocs/op; the
// analyzer rejects the allocation patterns that would break that gate
// before a test ever runs.
const hotPathMark = "slp:hotpath"

// hotPath checks functions annotated `//slp:hotpath` for the four
// allocation sources the zero-alloc discipline bans:
//
//   - function literals (every closure is a heap allocation once it
//     escapes into the scheduler);
//   - fmt.* calls (interface boxing plus formatting state; error paths
//     that genuinely need one carry a //lint:ignore hotpath pragma);
//   - implicit interface boxing: passing, assigning or returning a
//     non-pointer concrete value where an interface is expected (pointer,
//     map, chan and func values are exempt — storing those in an
//     interface does not allocate);
//   - append to a fresh, capacity-less local slice (var x []T / x := []T{}),
//     which grows by reallocation in the steady state instead of reusing a
//     pooled or pre-sized buffer.
//
// Escape hatch: `//lint:ignore hotpath <reason>` on the offending line.
var hotPath = &analyzer{name: "hotpath", run: runHotPath}

func runHotPath(pass *pass) {
	for _, file := range pass.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotPathMark(fd.Doc) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func hasHotPathMark(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotPathMark) {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *pass, fd *ast.FuncDecl) {
	freshSlices := collectFreshSlices(pass, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.reportf(x.Pos(), "closure literal in //slp:hotpath function %s: allocates per call; schedule a pooled des.Runner instead", fd.Name.Name)
			return false // the literal's own body is cold until annotated
		case *ast.CallExpr:
			checkHotCall(pass, fd, x, freshSlices)
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true // tuple assignment; no per-expression pairing
			}
			for i, lhs := range x.Lhs {
				checkBoxing(pass, fd, pass.typeOf(lhs), x.Rhs[i], "assignment")
			}
		case *ast.ReturnStmt:
			sig, ok := pass.typeOf(fd.Name).(*types.Signature)
			if !ok || sig.Results() == nil || len(x.Results) != sig.Results().Len() {
				return true
			}
			for i, res := range x.Results {
				checkBoxing(pass, fd, sig.Results().At(i).Type(), res, "return")
			}
		}
		return true
	})
}

func checkHotCall(pass *pass, fd *ast.FuncDecl, call *ast.CallExpr, freshSlices map[types.Object]bool) {
	// fmt.* calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.reportf(call.Pos(), "fmt.%s in //slp:hotpath function %s: formats through interfaces and allocates", sel.Sel.Name, fd.Name.Name)
				return
			}
		}
	}

	// Builtins: append on a fresh uncapped slice; other builtins are free.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" && len(call.Args) > 0 {
				if base, ok := call.Args[0].(*ast.Ident); ok && freshSlices[objectOf(pass, base)] {
					pass.reportf(call.Pos(),
						"append to fresh uncapped slice %s in //slp:hotpath function %s: grows by reallocation; make it with capacity or reuse a pooled buffer", base.Name, fd.Name.Name)
				}
			}
			return
		}
	}

	// Explicit conversion to an interface type.
	if tv, ok := pass.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		checkBoxing(pass, fd, tv.Type, call.Args[0], "conversion")
		return
	}

	// Implicit boxing at the call boundary.
	sig, ok := pass.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, fd, pt, arg, "argument")
	}
}

// checkBoxing reports when a concrete, non-pointer-shaped value meets an
// interface-typed slot.
func checkBoxing(pass *pass, fd *ast.FuncDecl, dst types.Type, src ast.Expr, context string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := pass.typeOf(src)
	if st == nil || types.IsInterface(st) {
		return
	}
	if basic, ok := st.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	switch st.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return // pointer-shaped: stored in the interface word, no allocation
	}
	pass.reportf(src.Pos(),
		"interface boxing in //slp:hotpath function %s: %s converts %s to %s and may allocate; keep hot values concrete or pointer-shaped",
		fd.Name.Name, context, st.String(), dst.String())
}

// collectFreshSlices finds local slice variables declared with no
// capacity: `var x []T`, `x := []T{}`, or `x := make([]T, 0)`.
func collectFreshSlices(pass *pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	note := func(id *ast.Ident) {
		if obj := pass.info.Defs[id]; obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					note(name)
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(x.Rhs) {
					continue
				}
				if isUncappedSliceExpr(pass, x.Rhs[i]) {
					note(id)
				}
			}
		}
		return true
	})
	return fresh
}

// isUncappedSliceExpr matches `[]T{}` (empty literal), `[]T(nil)` and
// `make([]T, 0)` — slice origins with zero capacity.
func isUncappedSliceExpr(pass *pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		_, isSlice := pass.typeOf(x).Underlying().(*types.Slice)
		return isSlice && len(x.Elts) == 0
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(x.Args) != 2 {
			return false
		}
		if _, isBuiltin := pass.info.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		if _, isSlice := pass.typeOf(x).Underlying().(*types.Slice); !isSlice {
			return false
		}
		tv, ok := pass.info.Types[x.Args[1]]
		return ok && tv.Value != nil && tv.Value.String() == "0"
	case *ast.Ident:
		return x.Name == "nil"
	}
	return false
}
