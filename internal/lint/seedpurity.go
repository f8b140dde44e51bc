package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// seedPurity enforces the repo's randomness contract in simulation
// packages: a run is a pure function of its seed, with every stream
// derived through internal/xrand's labelled SplitMix64 mixing
// (`BaseSeed + cell·Repeats + repeat` at the campaign layer, named
// component streams below it). Concretely it flags:
//
//   - time.Now / time.Since — wall-clock reads; simulation time is the
//     DES clock, and wall time in a result is nondeterminism by
//     definition;
//   - any import of math/rand (v1) — its global generator is shared
//     mutable state;
//   - any import of crypto/rand — cryptographic entropy is never
//     reproducible;
//   - calls to math/rand/v2 package functions (rand.New, rand.NewPCG,
//     rand.IntN, ...) — constructing or drawing from a generator must go
//     through internal/xrand so the stream has a stable label and survives
//     arena Reset reseeding. Referencing math/rand/v2 *types* (rand.Rand,
//     rand.PCG as owned reseedable state) is fine: state may live
//     anywhere, streams may only be minted by xrand.
//
// Escape hatch: `//lint:ignore seedpurity <reason>`.
var seedPurity = &analyzer{name: "seedpurity", run: runSeedPurity}

func runSeedPurity(pass *pass) {
	for _, file := range pass.files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch path {
			case "math/rand":
				pass.reportf(imp.Pos(),
					"import of math/rand: the v1 global generator is shared mutable state; derive streams via internal/xrand")
			case "crypto/rand":
				pass.reportf(imp.Pos(),
					"import of crypto/rand: cryptographic entropy is not reproducible; simulation randomness must be seed-derived via internal/xrand")
			}
		}

		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
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
			switch pn.Imported().Path() {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.reportf(sel.Pos(),
						"time.%s in a simulation package: wall-clock time is nondeterministic; use the DES virtual clock", sel.Sel.Name)
				}
			case "math/rand/v2", "math/rand":
				if _, isFunc := pass.info.Uses[sel.Sel].(*types.Func); isFunc {
					pass.reportf(sel.Pos(),
						"rand.%s in a simulation package: mint generators and draws through internal/xrand named streams", sel.Sel.Name)
				}
			}
			return true
		})
	}
}
