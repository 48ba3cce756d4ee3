package lint

import (
	"go/ast"
	"go/types"
)

// Hotalloc flags closure literals passed to the scheduler's hot-path
// At/After entry points wherever the allocation-free AtArg/AfterArg
// trampolines exist on the same type. PR 1's biggest win was removing
// per-event closure allocations from the MAC/medium hot paths; a casual
// `sched.After(d, func() { ... })` silently regresses it. The check is
// duck-typed: any receiver offering both At and AtArg (or After and
// AfterArg) is treated as a scheduler.
//
// A helper that passes one of its own parameters into a scheduler
// callback slot is flagged at that forwarding site: its callers' closures
// would allocate just the same, one call away from the check above.
// Methods of the scheduler type itself are exempt, since After → At is
// the scheduler's own API. Genuinely cold call sites — one-off setup
// scheduling — may carry a //detlint:allow hotalloc directive instead of
// contorting into the trampoline form.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag closures passed to scheduler At/After, and helpers forwarding a parameter into them, where AtArg/AfterArg trampolines exist",
	Run:  runHotalloc,
}

// schedCallbackSlot returns the argument index of the callback in a
// scheduler entry point, or -1 when name is not one.
func schedCallbackSlot(name string) int {
	switch name {
	case "At", "After", "AtArg", "AfterArg":
		return 1
	case "AtKeyedArg":
		return 2
	}
	return -1
}

func runHotalloc(pass *Pass) {
	info := pass.Pkg.Info
	// params holds the parameters of every function met so far; scoping
	// makes any use of one a use inside its function.
	params := make(map[types.Object]bool)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			// recv is the named receiver of the enclosing method, if any.
			var recv *types.Named
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				recv = derefNamed(info.TypeOf(fd.Recv.List[0].Type))
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if ft, ok := n.(*ast.FuncType); ok && ft.Params != nil {
					for _, field := range ft.Params.List {
						for _, name := range field.Names {
							if obj := info.Defs[name]; obj != nil {
								params[obj] = true
							}
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				named := namedRecvOf(info, sel)
				slot := schedCallbackSlot(name)
				if slot < 0 || !hasMethod(named, "At") || !hasMethod(named, "AtArg") {
					return true
				}
				if slot < len(call.Args) && (recv == nil || recv.Obj() != named.Obj()) {
					if id, ok := ast.Unparen(call.Args[slot]).(*ast.Ident); ok && params[info.Uses[id]] {
						pass.Reportf(id.Pos(), "parameter %s forwarded to %s.%s: a closure passed by the callers allocates per call; take a package-level func and use an Arg trampoline",
							id.Name, named.Obj().Name(), name)
					}
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
}
