package lint

import (
	"go/ast"
	"go/types"
)

// resetComplete proves the fresh-vs-reset no-drift contract structurally:
// for every struct type that is constructed in its package and carries a
// pointer-receiver Reset (or reset) method, each field must either be
// written by that method — directly, or inside another method of the same
// type the reset calls on its receiver — or be annotated
// `// lint:immutable[: reason]` on its declaration. "Written" means the
// field is the target of an assignment, ++/--, an index/star assignment
// through it, a clear()/copy() destination, has its address taken, or is
// the receiver of a method call (pcg.Seed, table.reset, ...). A field the
// reset path never touches is exactly the "added a field, forgot the
// rewind" bug class the PR 4 arena tests catch only on the configs they
// run; here it is an error on every build.
//
// A reset that assigns the whole struct (*s = T{...}) trivially satisfies
// every field.
//
// Escape hatches: the per-field `// lint:immutable` annotation for wiring
// and deliberately-preserved cross-run state, or `//lint:ignore
// resetcomplete <reason>` on the field line.
var resetComplete = &analyzer{name: "resetcomplete", run: runResetComplete}

func runResetComplete(pass *pass) {
	// Index this package's method declarations by receiver type name.
	methods := map[string]map[string]*ast.FuncDecl{}
	for _, file := range pass.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			name := recvTypeName(fd.Recv.List[0].Type)
			if name == "" {
				continue
			}
			if methods[name] == nil {
				methods[name] = map[string]*ast.FuncDecl{}
			}
			methods[name][fd.Name.Name] = fd
		}
	}

	// Types constructed in this package (composite literal or new(T)):
	// only those participate in the arena contract. A Reset on a type the
	// package never instantiates (e.g. an interface impl built elsewhere)
	// is out of scope.
	constructed := map[string]bool{}
	for _, file := range pass.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if name := namedTypeName(pass, pass.typeOf(x)); name != "" {
					constructed[name] = true
				}
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" && len(x.Args) == 1 {
					if _, isBuiltin := pass.info.Uses[id].(*types.Builtin); isBuiltin {
						if name := namedTypeName(pass, pass.typeOf(x.Args[0])); name != "" {
							constructed[name] = true
						}
					}
				}
			}
			return true
		})
	}

	// Walk the struct declarations and check each (type, Reset) pair.
	for _, file := range pass.files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !constructed[ts.Name.Name] {
					continue
				}
				reset := findReset(methods[ts.Name.Name])
				if reset == nil {
					continue
				}
				checkReset(pass, ts.Name.Name, st, reset, methods[ts.Name.Name])
			}
		}
	}
}

// findReset picks the type's reset entry point: Reset preferred, reset
// accepted; pointer receiver required (a value receiver cannot rewind).
func findReset(ms map[string]*ast.FuncDecl) *ast.FuncDecl {
	for _, name := range []string{"Reset", "reset"} {
		if fd, ok := ms[name]; ok {
			if _, ptr := fd.Recv.List[0].Type.(*ast.StarExpr); ptr {
				return fd
			}
		}
	}
	return nil
}

func checkReset(pass *pass, typeName string, st *ast.StructType, reset *ast.FuncDecl, ms map[string]*ast.FuncDecl) {
	w := &resetWalker{pass: pass, methods: ms, touched: map[string]bool{}, visited: map[*ast.FuncDecl]bool{}}
	w.walkMethod(reset)
	if w.fullReset {
		return
	}
	for _, field := range st.Fields.List {
		if hasImmutableMark(field) {
			continue
		}
		names := field.Names
		if len(names) == 0 {
			// Embedded field: known by its type name.
			if name := embeddedName(field.Type); name != "" && !w.touched[name] {
				pass.reportf(field.Pos(),
					"embedded field %s.%s is not written by (*%s).%s; rewind it or annotate // lint:immutable: <why>",
					typeName, name, typeName, reset.Name.Name)
			}
			continue
		}
		for _, name := range names {
			if name.Name == "_" || w.touched[name.Name] {
				continue
			}
			pass.reportf(name.Pos(),
				"field %s.%s is not written by (*%s).%s: a run after Reset would inherit the previous run's value; rewind it or annotate // lint:immutable: <why>",
				typeName, name.Name, typeName, reset.Name.Name)
		}
	}
}

// resetWalker accumulates the fields written on the reset path, following
// same-type method calls on the receiver transitively.
type resetWalker struct {
	pass      *pass
	methods   map[string]*ast.FuncDecl
	touched   map[string]bool
	visited   map[*ast.FuncDecl]bool
	fullReset bool
}

func (w *resetWalker) walkMethod(fd *ast.FuncDecl) {
	if w.visited[fd] || fd.Body == nil {
		return
	}
	w.visited[fd] = true
	recv := receiverObject(w.pass, fd)
	if recv == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if star, ok := lhs.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && objectOf(w.pass, id) == recv {
						w.fullReset = true
						continue
					}
				}
				w.touch(recv, lhs)
			}
		case *ast.IncDecStmt:
			w.touch(recv, x.X)
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				w.touch(recv, x.X)
			}
		case *ast.CallExpr:
			w.walkCall(recv, x)
		}
		return true
	})
}

// walkCall handles the three call shapes that extend the reset path:
// builtin clear/copy on a field, a method call on a field (the field owns
// its rewind), and a same-type method call on the receiver (recursed
// into).
func (w *resetWalker) walkCall(recv types.Object, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := w.pass.info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "clear":
				if len(call.Args) == 1 {
					w.touch(recv, call.Args[0])
				}
			case "copy":
				if len(call.Args) == 2 {
					w.touch(recv, call.Args[0])
				}
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok && objectOf(w.pass, id) == recv {
		// s.method(...) — same-type call: its writes count.
		if callee, ok := w.methods[sel.Sel.Name]; ok {
			w.walkMethod(callee)
		}
		return
	}
	// s.field.Method(...) or deeper: the first selector after the receiver
	// is a field delegating its own rewind (pcg.Seed, ninfo.reset, ...).
	w.touch(recv, sel.X)
}

// touch records the receiver field at the root of expr, if any: peels
// index, slice, star and selector layers down to `recv.field`.
func (w *resetWalker) touch(recv types.Object, expr ast.Expr) {
	for {
		switch x := expr.(type) {
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.ParenExpr:
			expr = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && objectOf(w.pass, id) == recv {
				w.touched[x.Sel.Name] = true
				return
			}
			expr = x.X
		default:
			return
		}
	}
}

// receiverObject resolves the receiver identifier's object.
func receiverObject(pass *pass, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return nil
	}
	return pass.info.Defs[names[0]]
}

// recvTypeName extracts the named type of a method receiver expression.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	default:
		return ""
	}
}

// namedTypeName returns the local name of t when it is (a pointer to) a
// named type declared in the package under analysis.
func namedTypeName(pass *pass, t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() != pass.pkg {
		return ""
	}
	return obj.Name()
}

// embeddedName returns the field name an embedded type declares.
func embeddedName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	default:
		return ""
	}
}
