package lint

import (
	"go/ast"
	"go/token"
)

// Floateq flags == and != between floating-point expressions. In the
// simulator's state machines an exact float comparison encodes a
// knife-edge decision: two mathematically equal computations can differ
// in the last ulp depending on evaluation order or platform, flipping
// the branch and desynchronising goldens. Comparisons should use a
// tolerance, an ordering test (<, <=), or integer-typed state instead.
// Struct and array equality that reaches a float field is flagged for
// the same reason.
var Floateq = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= between floating-point expressions in simulation state machines",
	Run:  runFloateq,
}

func runFloateq(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, yt := info.Types[be.X], info.Types[be.Y]
			if xt.Type == nil || yt.Type == nil {
				return true
			}
			// A comparison folded entirely at compile time is
			// deterministic by construction.
			if xt.Value != nil && yt.Value != nil {
				return true
			}
			if containsFloat(xt.Type) || containsFloat(yt.Type) {
				pass.Reportf(be.OpPos, "floating-point %s comparison; use a tolerance, an ordering test, or integer state", be.Op)
			}
			return true
		})
	}
}
