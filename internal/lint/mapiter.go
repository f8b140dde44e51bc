package lint

import (
	"go/ast"
	"go/types"
)

// mapIter flags `for range` over a map in simulation packages. Map
// iteration order is randomized per run of the process, so any map range
// that feeds scheduling, accumulation or output ordering silently breaks
// the byte-identical-sweeps contract — the classic determinism killer this
// codebase has already paid for once (the pre-PR 2 Ninfo map + sort.Slice
// hot site).
//
// Two shapes are recognized as safe and allowed without a pragma:
//
//   - collect-then-sort: every statement of the loop body appends to local
//     slices, and each of those slices is passed to a sort.* or slices.*
//     call later in the same function. Order nondeterminism is introduced
//     and then destroyed.
//   - drain: the body is exactly `delete(m, k)` on the ranged map — order
//     cannot matter when every element is removed.
//
// Anything else needs an explicit `//lint:ignore mapiter <reason>`.
var mapIter = &analyzer{name: "mapiter", run: runMapIter}

func runMapIter(pass *pass) {
	for _, file := range pass.files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkMapRanges(pass, body)
			return true
		})
	}
}

// checkMapRanges reports unsafe map ranges directly inside body (nested
// function literals are visited as their own bodies by the caller).
func checkMapRanges(pass *pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // visited separately; sort context differs
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.typeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if isDrainLoop(pass, rs) || isCollectThenSort(pass, rs, body) {
			return true
		}
		pass.reportf(rs.Pos(),
			"range over map %s: iteration order is nondeterministic in a simulation package; collect and sort the keys, or annotate //lint:ignore mapiter <reason>",
			exprString(pass, rs.X))
		return true
	})
}

// isDrainLoop recognizes `for k := range m { delete(m, k) }`.
func isDrainLoop(pass *pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	es, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "delete" {
		return false
	}
	if _, isBuiltin := pass.info.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	return sameObject(pass, call.Args[0], rs.X) && sameObject(pass, call.Args[1], rs.Key)
}

// isCollectThenSort recognizes loops whose whole body appends to local
// slices that are each sorted later in the enclosing function body.
func isCollectThenSort(pass *pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	var collected []types.Object
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		if _, isBuiltin := pass.info.Uses[fn].(*types.Builtin); !isBuiltin {
			return false
		}
		base, ok := call.Args[0].(*ast.Ident)
		if !ok || objectOf(pass, base) == nil || objectOf(pass, base) != objectOf(pass, lhs) {
			return false
		}
		collected = append(collected, objectOf(pass, lhs))
	}
	if len(collected) == 0 {
		return false
	}
	for _, obj := range collected {
		if !sortedAfter(pass, obj, rs, enclosing) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj is passed (anywhere in an argument
// expression) to a sort.* or slices.* call positioned after the range
// statement within the enclosing body.
func sortedAfter(pass *pass, obj types.Object, rs *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.info.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && objectOf(pass, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func objectOf(pass *pass, id *ast.Ident) types.Object {
	if obj := pass.info.Uses[id]; obj != nil {
		return obj
	}
	return pass.info.Defs[id]
}

// sameObject reports whether two expressions are uses of one identifier's
// object.
func sameObject(pass *pass, a, b ast.Expr) bool {
	ai, ok := a.(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := b.(*ast.Ident)
	if !ok {
		return false
	}
	ao, bo := objectOf(pass, ai), objectOf(pass, bi)
	return ao != nil && ao == bo
}

// exprString renders small expressions for messages without importing
// go/printer: identifiers and selector chains cover the practical cases.
func exprString(pass *pass, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(pass, x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(pass, x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(pass, x.X) + "[...]"
	default:
		return "expression"
	}
}
