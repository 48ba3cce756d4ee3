// Package lint is detlint: a static-analysis suite that mechanically
// enforces the simulator's determinism invariants. Every figure in the
// reproduction depends on runs being a pure function of (scenario,
// seed). The dynamic gates (goldens, -race, the allocation and
// throughput guards) check that on the runs they make; the analyzers
// here keep only the rules those gates cannot see — no wall clock in
// simulation packages, no floating-point equality, no closures on the
// scheduler hot path, no metric lookups by name in handlers, no
// map-typed shard mailboxes, no hand-rolled counter-RNG keys — and turn
// them into build failures. DESIGN.md §7 records, per analyzer, the
// planted bug that every dynamic gate missed.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf, analysistest-style golden diagnostics) but is self-contained
// on the standard library: packages are loaded via `go list -export`
// plus the gc export-data importer in load.go, so the module needs no
// external dependencies and works fully offline. Since detlint v2 the
// framework is interprocedural: ComputeFacts (facts.go) summarises
// every function bottom-up over the intra-module call graph, so the
// analyzers also catch violations hidden one call away.
//
// A site that is deliberately exempt carries a directive comment:
//
//	//detlint:allow floateq -- config sentinel: set literally, never computed
//
// either trailing the offending line or on the line(s) immediately
// above it. See directive.go for the exact placement rules.
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"sync"
)

// An Analyzer describes one invariant check. The shape intentionally
// matches golang.org/x/tools/go/analysis.Analyzer so the checks could be
// rehosted on the real framework if the dependency ever becomes
// available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //detlint:allow directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and why
	// it matters for reproducibility.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass)
}

// All returns every registered analyzer, in reporting order. Directive
// validation uses this set, so a new analyzer becomes a legal
// //detlint:allow name simply by being added here.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, Floateq, Hotalloc, Obshot, Shardmail, Rngstream}
}

// A Pass connects an Analyzer to the single package it is inspecting.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Facts is the module-wide interprocedural summary table, computed
	// over every loaded package (not just the analyzed scope). Nil in
	// tests that drive an analyzer without facts; all accessors are
	// nil-safe, degrading to the v1 per-function behaviour.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// analyzePackage runs the analyzers over one package: raw findings,
// allow-directive filtering, and directive-validity diagnostics.
func analyzePackage(pkg *Package, facts *Facts, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	allow, dirDiags := parseDirectives(pkg, known)
	var raw []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Pkg: pkg, Facts: facts, diags: &raw})
	}
	var out []Diagnostic
	for _, d := range raw {
		if allow.allows(d.Pos.Filename, d.Pos.Line, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return append(out, dirDiags...)
}

// Run applies the given analyzers to every package, filters out findings
// suppressed by //detlint:allow directives, and returns the survivors —
// plus any diagnostics about malformed directives themselves — sorted by
// position. Directive names are validated against the full registered
// set (All), not just the analyzers being run, so a file exercising one
// analyzer may still carry allow directives for another.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunScoped(pkgs, pkgs, analyzers)
}

// RunScoped computes interprocedural facts over all loaded packages but
// analyzes (and reports on) only the scope subset. Packages are
// analyzed in parallel; output order is deterministic regardless.
func RunScoped(all, scope []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := ComputeFacts(all)

	perPkg := make([][]Diagnostic, len(scope))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range scope {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i] = analyzePackage(pkg, facts, analyzers)
		}(i, pkg)
	}
	wg.Wait()

	var out []Diagnostic
	for _, diags := range perPkg {
		out = append(out, diags...)
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders diagnostics by position, then analyzer, then
// message — the canonical presentation order.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
