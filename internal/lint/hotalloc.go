package lint

import (
	"go/ast"
)

// Hotalloc flags closure literals passed to the scheduler's hot-path
// At/After entry points wherever the allocation-free AtArg/AfterArg
// trampolines exist on the same type. PR 1's biggest win was removing
// per-event closure allocations from the MAC/medium hot paths; a casual
// `sched.After(d, func() { ... })` silently regresses it. The check is
// duck-typed: any receiver offering both At and AtArg (or After and
// AfterArg) is treated as a scheduler. With facts available the check
// is also interprocedural: a closure handed to a helper that forwards
// its parameter into a scheduler callback slot allocates just the same,
// and is flagged at the hand-off. Genuinely cold call sites —
// one-off setup scheduling — may carry a //detlint:allow hotalloc
// directive instead of contorting into the trampoline form.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag closures passed to scheduler At/After (directly or through forwarding helpers) where AtArg/AfterArg trampolines exist",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				reportForwardedClosure(pass, call)
				return true
			}
			name := sel.Sel.Name
			named := namedRecvOf(info, sel)
			isSched := named != nil && hasMethod(named, "At") && hasMethod(named, "AtArg")
			if !isSched || schedCallbackSlot(name) < 0 {
				reportForwardedClosure(pass, call)
				return true
			}
			if name == "AtKeyedArg" {
				// Already trampoline-shaped, but a closure in the fn slot
				// still allocates per call — and this is the sharded
				// medium's per-arrival hot path.
				for _, arg := range call.Args {
					if _, isClosure := arg.(*ast.FuncLit); isClosure {
						pass.Reportf(arg.Pos(), "closure literal passed to %s.AtKeyedArg allocates per call; pass a package-level trampoline func",
							named.Obj().Name())
					}
				}
				return true
			}
			if !hasMethod(named, name+"Arg") {
				return true
			}
			for _, arg := range call.Args {
				if _, isClosure := arg.(*ast.FuncLit); isClosure {
					pass.Reportf(arg.Pos(),
						"closure literal passed to %s.%s allocates per call; use %s.%sArg with a package-level func",
						named.Obj().Name(), name, named.Obj().Name(), name)
				}
			}
			return true
		})
	}
}

// reportForwardedClosure flags closure literals handed to functions
// whose summaries say the parameter lands in a scheduler callback slot.
func reportForwardedClosure(pass *Pass, call *ast.CallExpr) {
	callee := calleeOf(pass.Pkg.Info, call)
	if callee == nil {
		return
	}
	ff := pass.Facts.Of(callee)
	if ff == nil || len(ff.SchedParams) == 0 {
		return
	}
	for i, arg := range call.Args {
		if _, isClosure := arg.(*ast.FuncLit); !isClosure {
			continue
		}
		if ff.ForwardsToScheduler(i) {
			pass.Reportf(arg.Pos(), "closure literal passed to %s allocates on the scheduling hot path: %s; pass a package-level func",
				callee.Name(), ff.SchedParamWitness)
		}
	}
}
