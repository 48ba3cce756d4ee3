package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Interprocedural function summaries ("facts"), DESIGN.md §12.
//
// The original analyzers were per-function and syntactic: they caught
// `time.Now()` written in simulation code but not a call to a helper
// that hides the same read one frame down the stack. Facts close that
// gap. ComputeFacts walks every loaded package once, seeds each
// function with the properties it exhibits directly, records the
// intra-module call graph, and then propagates the properties bottom-up
// to a fixpoint, so `f calls g, g calls time.Now` marks f as touching
// the wall clock. Analyzers consult the table through Pass.Facts to
// flag one-level-indirect violations at the call site.
//
// Two design rules keep the table from poisoning clean code:
//
//   - A direct use suppressed by a //detlint:allow directive does NOT
//     seed a fact. The directive asserts the use is sanctioned (host
//     benchmarking, a wall-time watchdog), so functions calling the
//     sanctioned wrapper must not inherit a violation.
//   - Every propagated fact carries a human-readable witness chain
//     ("calls runGuarded, which reads the wall clock via time.AfterFunc
//     at guard.go:113") so a report at a call site names the root cause
//     instead of pointing at an innocent-looking identifier.
//
// Facts are keyed by (*types.Func).FullName(), so a callee seen through
// a caller's export-data import and the same function type-checked from
// source share one entry.

// A Fact is one bottom-up function property.
type Fact uint8

const (
	// FactWallClock: the function (transitively) reads the host clock
	// via a banned time.* entry point.
	FactWallClock Fact = iota
	// FactGlobalRand: the function (transitively) draws from or mutates
	// the process-global math/rand source.
	FactGlobalRand
	// FactDrawsRNG: the function (transitively) draws randomness from
	// any source — the global math/rand or a deterministic internal/rng
	// stream. Unlike FactGlobalRand this is not a violation by itself;
	// it matters in order-sensitive contexts (map iteration).
	FactDrawsRNG
	// FactSchedules: the function (transitively) schedules events on a
	// duck-typed scheduler (a receiver with both At and AtArg).
	FactSchedules
	// FactMutatesShared: the function (transitively) writes
	// package-level state.
	FactMutatesShared

	numFacts
)

// FuncFacts is the summary of one function.
type FuncFacts struct {
	has     [numFacts]bool
	witness [numFacts]string
	// SchedParams lists the indices of parameters (receiver excluded)
	// the function forwards — directly or through other functions — into
	// a scheduler's callback slot. A closure literal passed at such a
	// position allocates on the scheduling hot path exactly like a
	// closure passed to At itself.
	SchedParams []int
	// SchedParamWitness describes where the forwarded parameter lands.
	SchedParamWitness string
}

// Has reports whether the fact is set. Nil-safe.
func (ff *FuncFacts) Has(f Fact) bool {
	return ff != nil && ff.has[f]
}

// Witness returns the witness chain for a set fact. Nil-safe.
func (ff *FuncFacts) Witness(f Fact) string {
	if ff == nil {
		return ""
	}
	return ff.witness[f]
}

// ForwardsToScheduler reports whether parameter index i (receiver
// excluded) reaches a scheduler callback slot. Nil-safe.
func (ff *FuncFacts) ForwardsToScheduler(i int) bool {
	if ff == nil {
		return false
	}
	for _, p := range ff.SchedParams {
		if p == i {
			return true
		}
	}
	return false
}

// Facts is the module-wide summary table.
type Facts struct {
	funcs map[string]*FuncFacts
}

// Of returns the summary for fn, or nil when fn's body was not among
// the loaded packages (stdlib, external, interface methods). Nil-safe.
func (fs *Facts) Of(fn *types.Func) *FuncFacts {
	if fs == nil || fn == nil {
		return nil
	}
	return fs.funcs[fn.FullName()]
}

// callEdge records one static call site inside a function.
type callEdge struct {
	callee string // FullName of the callee
	name   string // display name for witness chains
	pos    token.Position
	// argParams[i] = the caller's parameter index passed verbatim as the
	// callee's i-th argument, or -1. Drives SchedParams propagation.
	argParams []int
}

// funcNode is the per-function working state during computation.
type funcNode struct {
	key   string
	facts *FuncFacts
	calls []callEdge
	// schedParamSet mirrors facts.SchedParams for O(1) updates.
	schedParamSet map[int]bool
}

// ComputeFacts builds the summary table over every loaded package.
// Directives are honoured: an allow-suppressed direct use seeds
// nothing. The fixpoint is deterministic — functions are visited in
// sorted key order and call edges in source order, and a witness, once
// set, is never replaced.
func ComputeFacts(pkgs []*Package) *Facts {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}

	nodes := make(map[string]*funcNode)
	for _, pkg := range pkgs {
		allow, _ := parseDirectives(pkg, known)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{
					key:           obj.FullName(),
					facts:         &FuncFacts{},
					schedParamSet: make(map[int]bool),
				}
				seedFunc(pkg, fd, obj, allow, n)
				nodes[n.key] = n
			}
		}
	}

	propagate(nodes)

	fs := &Facts{funcs: make(map[string]*FuncFacts, len(nodes))}
	for k, n := range nodes {
		fs.funcs[k] = n.facts
	}
	return fs
}

// paramObjects returns the parameter variables of fd in declaration
// order (receiver excluded), for matching forwarded arguments.
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes: a package-level function, a method with a concrete receiver,
// or a local function referenced by name. Calls through interface
// values or function-typed variables return nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if s.Kind() != types.MethodVal {
				return nil
			}
			// Interface dispatch has no body to summarise.
			if types.IsInterface(s.Recv()) {
				return nil
			}
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
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

// seedFunc walks one function body, setting directly-exhibited facts
// (unless an allow directive sanctions the site) and recording call
// edges for propagation.
func seedFunc(pkg *Package, fd *ast.FuncDecl, obj *types.Func, allow allowIndex, n *funcNode) {
	info := pkg.Info
	params := paramObjects(info, fd)
	paramIndex := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		use := info.Uses[id]
		for i, p := range params {
			if use != nil && use == p {
				return i
			}
		}
		return -1
	}
	set := func(f Fact, pos token.Pos, witness string) {
		p := pkg.Fset.Position(pos)
		if f == FactWallClock || f == FactGlobalRand {
			if allow.allows(p.Filename, p.Line, Wallclock.Name) {
				return
			}
		}
		if !n.facts.has[f] {
			n.facts.has[f] = true
			n.facts.witness[f] = fmt.Sprintf("%s (%s:%d)", witness, shortFilename(p.Filename), p.Line)
		}
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SelectorExpr:
			if pkgPath, name, ok := pkgFuncOf(info, node); ok {
				if banned, ok := wallclockBanned[pkgPath]; ok {
					if _, ok := banned[name]; ok {
						if pkgPath == "time" {
							set(FactWallClock, node.Pos(), fmt.Sprintf("reads the wall clock via %s.%s", pkgBase(pkgPath), name))
						} else {
							set(FactGlobalRand, node.Pos(), fmt.Sprintf("draws from the %s global source via %s.%s", pkgPath, pkgBase(pkgPath), name))
							set(FactDrawsRNG, node.Pos(), fmt.Sprintf("draws from the %s global source via %s.%s", pkgPath, pkgBase(pkgPath), name))
						}
					}
				}
			}

		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if named := namedRecvOf(info, sel); named != nil {
					if p := named.Obj().Pkg(); p != nil && pkgBase(p.Path()) == "rng" {
						set(FactDrawsRNG, node.Pos(), fmt.Sprintf("draws from an rng stream via (%s).%s", named.Obj().Name(), sel.Sel.Name))
					}
					if slot := schedCallbackSlot(sel.Sel.Name); slot >= 0 &&
						hasMethod(named, "At") && hasMethod(named, "AtArg") {
						set(FactSchedules, node.Pos(), fmt.Sprintf("schedules events via (%s).%s", named.Obj().Name(), sel.Sel.Name))
						// Forwarding a parameter straight into the
						// callback slot makes this function a scheduling
						// trampoline for its caller.
						if slot < len(node.Args) {
							if i := paramIndex(node.Args[slot]); i >= 0 && !n.schedParamSet[i] {
								n.schedParamSet[i] = true
								p := pkg.Fset.Position(node.Pos())
								if n.facts.SchedParamWitness == "" {
									n.facts.SchedParamWitness = fmt.Sprintf("forwards it to (%s).%s (%s:%d)",
										named.Obj().Name(), sel.Sel.Name, shortFilename(p.Filename), p.Line)
								}
							}
						}
					}
				}
			}
			if callee := calleeOf(info, node); callee != nil && callee.FullName() != n.key {
				edge := callEdge{
					callee: callee.FullName(),
					name:   callee.Name(),
					pos:    pkg.Fset.Position(node.Pos()),
				}
				edge.argParams = make([]int, len(node.Args))
				for i, a := range node.Args {
					edge.argParams[i] = paramIndex(a)
				}
				n.calls = append(n.calls, edge)
			}

		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if isPackageLevelTarget(info, lhs) {
					set(FactMutatesShared, node.Pos(), fmt.Sprintf("writes package-level %q", rootIdent(lhs).Name))
				}
			}

		case *ast.IncDecStmt:
			if isPackageLevelTarget(info, node.X) {
				set(FactMutatesShared, node.Pos(), fmt.Sprintf("writes package-level %q", rootIdent(node.X).Name))
			}
		}
		return true
	})

	for i := range params {
		if n.schedParamSet[i] {
			n.facts.SchedParams = append(n.facts.SchedParams, i)
		}
	}
}

// propagate runs the bottom-up fixpoint: a caller inherits every fact
// of its statically-resolved callees, and a parameter passed verbatim
// into a callee's scheduler-forwarded position becomes
// scheduler-forwarded itself.
func propagate(nodes map[string]*funcNode) {
	keys := make([]string, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			n := nodes[k]
			for _, e := range n.calls {
				callee, ok := nodes[e.callee]
				if !ok {
					continue
				}
				for f := Fact(0); f < numFacts; f++ {
					if callee.facts.has[f] && !n.facts.has[f] {
						n.facts.has[f] = true
						n.facts.witness[f] = fmt.Sprintf("calls %s, which %s", e.name, callee.facts.witness[f])
						changed = true
					}
				}
				for _, calleeParam := range callee.facts.SchedParams {
					if calleeParam >= len(e.argParams) {
						continue
					}
					if i := e.argParams[calleeParam]; i >= 0 && !n.schedParamSet[i] {
						n.schedParamSet[i] = true
						n.facts.SchedParams = append(n.facts.SchedParams, i)
						sort.Ints(n.facts.SchedParams)
						if n.facts.SchedParamWitness == "" {
							n.facts.SchedParamWitness = fmt.Sprintf("passes it to %s, which %s", e.name, callee.facts.SchedParamWitness)
						}
						changed = true
					}
				}
			}
		}
	}
}

// shortFilename trims a path to its final two elements, keeping witness
// chains readable without losing the package context.
func shortFilename(path string) string {
	slash := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			slash++
			if slash == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}
