package lint

import (
	"go/ast"
	"strings"
)

// Wallclock forbids wall-clock time and the global math/rand source in
// simulation code. A simulated run must be a pure function of
// (scenario, seed): reading the host clock makes results vary run to
// run, and the global rand source is both shared mutable state (draws
// from one component perturb every other) and seeded differently per
// process. Simulation code must use the scheduler's clock
// (sim.Scheduler.Now) and streams from internal/rng instead.
//
// Only the packages that hold simulation state are checked: those under
// internal/, except the sweep daemon (internal/serve), whose backoff
// timers and deadlines are host time by design. cmd/, the top-level
// package (bench.go) and the benchmark time runs from outside the
// simulation and are not analyzed.
//
// The check is direct only, because no simulation package can reach a
// clock read hidden one call away. A helper inside one is flagged where
// it reads the clock. The unchecked packages cannot be imported back:
// cmd/ holds mains, and internal/serve and the top-level package import
// internal/experiment, whose import closure holds every simulation
// package (DESIGN.md §12).
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/time.Since and the global math/rand source in simulation packages",
	Run:  runWallclock,
}

// simulationPackage reports whether the package at path holds
// simulation state: it lies under an internal/ directory and is not the
// sweep daemon.
func simulationPackage(path string) bool {
	path += "/"
	return strings.Contains(path, "/internal/") && !strings.Contains(path, "/internal/serve/")
}

// wallclockBanned maps import path → function name → the replacement to
// suggest. Only package-level functions are listed: time.Duration,
// time.Time and friends remain legal as plain data types.
var wallclockBanned = map[string]map[string]string{
	"time": {
		"Now":       "the sim clock (Scheduler.Now)",
		"Since":     "sim-clock arithmetic",
		"Until":     "sim-clock arithmetic",
		"Sleep":     "Scheduler.After",
		"Tick":      "Scheduler.After",
		"After":     "Scheduler.After",
		"AfterFunc": "Scheduler.After",
		"NewTimer":  "Scheduler.After",
		"NewTicker": "Scheduler.After",
	},
	// Constructing a private source with rand.New(rand.NewSource(seed))
	// is not listed: it is deterministic, merely discouraged in favour of
	// internal/rng streams. Everything here draws from or mutates the
	// process-global source.
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "",
		"Read": "", "Seed": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint": "", "UintN": "", "Uint32": "", "Uint32N": "", "Uint64": "", "Uint64N": "",
		"Float32": "", "Float64": "", "ExpFloat64": "", "NormFloat64": "",
		"Perm": "", "Shuffle": "", "N": "",
	},
}

func runWallclock(pass *Pass) {
	if !simulationPackage(pass.Pkg.PkgPath) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFuncOf(pass.Pkg.Info, sel)
			if !ok {
				return true
			}
			banned, ok := wallclockBanned[pkgPath]
			if !ok {
				return true
			}
			advice, ok := banned[name]
			if !ok {
				return true
			}
			if pkgPath == "time" {
				pass.Reportf(sel.Pos(), "%s.%s reads the wall clock in simulation code; use %s", pkgBase(pkgPath), name, advice)
			} else {
				pass.Reportf(sel.Pos(), "%s.%s draws from the %s global source in simulation code; use an internal/rng stream", pkgBase(pkgPath), name, pkgPath)
			}
			return true
		})
	}
}
