package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder flags `range` over a map whose body makes iteration order
// observable. Go randomises map order per run, so any append, output
// emission, RNG draw, event schedule, or floating-point accumulation
// inside such a loop leaks nondeterminism straight into results and
// goldens. The blessed pattern (experiment.PerSenderCSV) extracts the
// keys, sorts them, and iterates the sorted slice; a pure key-extraction
// loop is therefore exempt — provided the slice actually reaches a
// sort.*/slices.* call in the same function.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose body makes the randomised order observable",
	Run:  runMaporder,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}

			if dst, pure := extractionTarget(pass.Pkg.Info, rs); pure {
				if !sortedInFunc(pass.Pkg.Info, enclosingFuncBody(stack), dst) {
					pass.Reportf(rs.For,
						"map keys are extracted into %q but never sorted in this function; sort before iterating", dst.Name())
				}
				return true
			}

			if pos, what := orderSensitiveOp(pass, rs); pos.IsValid() {
				pass.Reportf(rs.For, "map iteration %s; extract and sort the keys first (see experiment.PerSenderCSV)", what)
			}
			return true
		})
	}
}

// extractionTarget reports whether the range body is a pure
// key/value-extraction loop — every statement appends only the range
// variables (possibly converted, possibly their fields) to one slice —
// and returns the object identifying that slice: the local variable, or
// the struct field for a `t.Receivers = append(t.Receivers, id)` shape.
func extractionTarget(info *types.Info, rs *ast.RangeStmt) (*types.Var, bool) {
	var rangeVars []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			rangeVars = append(rangeVars, info.Defs[id])
		}
	}
	if len(rs.Body.List) == 0 {
		return nil, false
	}
	var dst *types.Var
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil, false
		}
		lhsVar := sliceVarOf(info, as.Lhs[0])
		if lhsVar == nil {
			return nil, false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" || len(call.Args) < 2 {
			return nil, false
		}
		if sliceVarOf(info, call.Args[0]) != lhsVar {
			return nil, false
		}
		// The appended values may mention only the range variables (plus
		// their fields, types, constants, and functions — conversions
		// like int(id) and literals like Pair{k.a, k.b} are fine); any
		// other variable makes this a real loop body.
		for _, arg := range call.Args[1:] {
			if !usesOnlyVars(info, arg, rangeVars) {
				return nil, false
			}
		}
		if dst != nil && lhsVar != dst {
			return nil, false
		}
		dst = lhsVar
	}
	return dst, dst != nil
}

// sliceVarOf resolves an append target to its identifying variable: the
// object of a plain identifier, or the field object of a selector like
// t.Receivers. Anything else (index expressions, calls) returns nil.
func sliceVarOf(info *types.Info, expr ast.Expr) *types.Var {
	switch e := expr.(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
	}
	return nil
}

// usesOnlyVars reports whether every variable mentioned in expr is one
// of the allowed objects. Field names in selections and composite
// literal keys are not "mentions": k.sender reads only k.
func usesOnlyVars(info *types.Info, expr ast.Expr, allowed []types.Object) bool {
	skip := make(map[*ast.Ident]bool)
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			skip[e.Sel] = true
		case *ast.KeyValueExpr:
			if id, ok := e.Key.(*ast.Ident); ok {
				skip[id] = true
			}
		}
		return true
	})
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || skip[id] {
			return true
		}
		if v, isVar := info.Uses[id].(*types.Var); isVar {
			found := false
			for _, a := range allowed {
				if v == a {
					found = true
				}
			}
			if !found {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// sortedInFunc reports whether fn contains a sorting call that mentions
// dst among its arguments: any function from package sort or slices, or
// — by naming convention — any local helper whose name starts with
// "sort"/"Sort" (e.g. topo.sortIDs).
func sortedInFunc(info *types.Info, fn *ast.BlockStmt, dst *types.Var) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		isSort := false
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if pkgPath, _, ok := pkgFuncOf(info, fun); ok {
				isSort = pkgPath == "sort" || pkgPath == "slices"
			} else {
				isSort = sortishName(fun.Sel.Name)
			}
		case *ast.Ident:
			isSort = sortishName(fun.Name)
		}
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, isIdent := m.(*ast.Ident); isIdent && info.Uses[id] == dst {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func sortishName(name string) bool {
	return strings.HasPrefix(name, "sort") || strings.HasPrefix(name, "Sort")
}

// orderSensitiveOp scans the range body for the first operation through
// which map-iteration order can leak into observable state, returning
// its position and a description. With facts available, a call to any
// function that transitively draws RNG, schedules events, or mutates
// package state counts too — the loop body cannot launder order
// sensitivity through a helper.
func orderSensitiveOp(pass *Pass, rs *ast.RangeStmt) (token.Pos, string) {
	info := pass.Pkg.Info
	best := token.NoPos
	what := ""
	hit := func(pos token.Pos, desc string) {
		if !best.IsValid() || pos < best {
			best, what = pos, desc
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			hit(n.Pos(), "sends on a channel")

		case *ast.CallExpr:
			if fun, ok := n.Fun.(*ast.Ident); ok && fun.Name == "append" {
				if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
					hit(n.Pos(), "appends to a slice")
				}
				return true
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				indirectOrderHit(pass, n, hit)
				return true
			}
			if pkgPath, name, ok := pkgFuncOf(info, sel); ok {
				switch {
				case pkgPath == "math/rand" || pkgPath == "math/rand/v2":
					hit(n.Pos(), "draws from an RNG")
				case pkgPath == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
					hit(n.Pos(), "emits output")
				default:
					indirectOrderHit(pass, n, hit)
				}
				return true
			}
			if named := namedRecvOf(info, sel); named != nil {
				base := ""
				if p := named.Obj().Pkg(); p != nil {
					base = pkgBase(p.Path())
				}
				switch {
				case base == "rng":
					hit(n.Pos(), "draws from an RNG")
				case base == "trace" || strings.HasPrefix(sel.Sel.Name, "Write"):
					hit(n.Pos(), "emits output")
				case schedulerMethod(sel.Sel.Name) && hasMethod(named, "At") && hasMethod(named, "AtArg"):
					hit(n.Pos(), "schedules events")
				default:
					indirectOrderHit(pass, n, hit)
				}
			}

		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if t := info.TypeOf(lhs); t != nil && isFloat(t) && !declaredIn(info, lhs, rs.Body) {
						hit(n.Pos(), "accumulates floating-point state (order changes rounding)")
					}
				}
			}
			for _, lhs := range n.Lhs {
				if isPackageLevelTarget(info, lhs) {
					hit(n.Pos(), "writes package-level state")
				}
			}

		case *ast.IncDecStmt:
			if t := info.TypeOf(n.X); t != nil && isFloat(t) && !declaredIn(info, n.X, rs.Body) {
				hit(n.Pos(), "accumulates floating-point state (order changes rounding)")
			}
			if isPackageLevelTarget(info, n.X) {
				hit(n.Pos(), "writes package-level state")
			}
		}
		return true
	})
	return best, what
}

// indirectOrderHit consults the fact table for a call that none of the
// direct patterns matched: if the callee transitively draws RNG,
// schedules events, or writes package-level state, iteration order
// leaks through it just the same.
func indirectOrderHit(pass *Pass, call *ast.CallExpr, hit func(token.Pos, string)) {
	callee := calleeOf(pass.Pkg.Info, call)
	if callee == nil {
		return
	}
	ff := pass.Facts.Of(callee)
	switch {
	case ff.Has(FactDrawsRNG):
		hit(call.Pos(), fmt.Sprintf("calls %s, which %s", callee.Name(), ff.Witness(FactDrawsRNG)))
	case ff.Has(FactSchedules):
		hit(call.Pos(), fmt.Sprintf("calls %s, which %s", callee.Name(), ff.Witness(FactSchedules)))
	case ff.Has(FactMutatesShared):
		hit(call.Pos(), fmt.Sprintf("calls %s, which %s", callee.Name(), ff.Witness(FactMutatesShared)))
	}
}

func schedulerMethod(name string) bool {
	switch name {
	case "At", "After", "AtArg", "AfterArg":
		return true
	}
	return false
}

// declaredIn reports whether the root identifier of expr names a
// variable declared inside block (a per-iteration local, which cannot
// accumulate across iterations).
func declaredIn(info *types.Info, expr ast.Expr, block *ast.BlockStmt) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && obj.Pos() >= block.Pos() && obj.Pos() < block.End()
}

// isPackageLevelTarget reports whether the root identifier of an
// assignment target is a package-level variable.
func isPackageLevelTarget(info *types.Info, expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// rootIdent unwraps selectors, indexes, stars, and parens to the
// leftmost identifier of an lvalue expression.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
