package lint_test

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcfguard/internal/lint"
	"dcfguard/internal/lint/linttest"
)

func TestRngstream(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/rngstream", lint.Rngstream)
}

// repoRoot walks up from the test's working directory to the module
// root, mirroring linttest's loader convention.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestWallclockIndirect pins the interprocedural upgrade against the
// exact blindness of the v1 analyzer. The clockdep corpus splits a
// wall-clock read (helper.Stamp) from its callers (package caller),
// which never mention time.* themselves.
func TestWallclockIndirect(t *testing.T) {
	root := repoRoot(t)

	// v1 behaviour, reproduced: analyzing caller without helper's syntax
	// loaded yields no facts and therefore no findings — the analyzer is
	// provably blind to the laundered clock read.
	callerOnly, err := lint.Load(root, "./internal/lint/testdata/src/clockdep/caller")
	if err != nil {
		t.Fatal(err)
	}
	if diags := lint.Run(callerOnly, []*lint.Analyzer{lint.Wallclock}); len(diags) != 0 {
		t.Fatalf("caller-only run (v1 blindness baseline) reported %d diagnostics, want 0:\n%v", len(diags), diags)
	}

	// v2: facts computed over both packages, analysis scoped to caller.
	// Both call sites are flagged, each with a witness chain naming the
	// root time.Now.
	both, err := lint.Load(root,
		"./internal/lint/testdata/src/clockdep/helper",
		"./internal/lint/testdata/src/clockdep/caller")
	if err != nil {
		t.Fatal(err)
	}
	var caller *lint.Package
	for _, p := range both {
		if strings.HasSuffix(p.PkgPath, "/caller") {
			caller = p
		}
	}
	if caller == nil {
		t.Fatalf("caller package not among %d loaded packages", len(both))
	}
	diags := lint.RunScoped(both, []*lint.Package{caller}, []*lint.Analyzer{lint.Wallclock})
	if len(diags) != 2 {
		t.Fatalf("scoped run reported %d diagnostics, want 2:\n%v", len(diags), diags)
	}
	for _, want := range []string{
		"Stamp reads the wall clock indirectly: reads the wall clock via time.Now",
		"Elapsed reads the wall clock indirectly: calls Stamp, which reads the wall clock via time.Now",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in:\n%v", want, diags)
		}
	}
}

// TestModuleIsClean is the anti-regression pin: the shipping module —
// everything dcflint checks by default, i.e. all packages except
// internal/lint and its corpora — must produce zero findings under the
// full analyzer set. Any new finding is either a real violation to fix
// or a justified site missing its //detlint:allow.
func TestModuleIsClean(t *testing.T) {
	root := repoRoot(t)
	all, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var scope []*lint.Package
	for _, p := range all {
		if strings.HasPrefix(p.PkgPath, "dcfguard/internal/lint") {
			continue
		}
		scope = append(scope, p)
	}
	if len(scope) == 0 {
		t.Fatal("no packages in scope")
	}
	diags := lint.RunScoped(all, scope, lint.All())
	for _, d := range diags {
		t.Errorf("unexpected finding: %v", d)
	}
	if len(diags) > 0 {
		t.Logf("%d findings over %d packages", len(diags), len(scope))
	}
}

// TestAllowSites exercises the audit surface over the hotalloc corpus:
// its one line-scoped site is reported with its analyzer name, and the
// justification after "--" is captured verbatim.
func TestAllowSites(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := lint.Load(root, "./internal/lint/testdata/src/hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	sites := lint.AllowSites(pkgs)
	if len(sites) != 1 {
		t.Fatalf("AllowSites = %d sites, want 1:\n%+v", len(sites), sites)
	}
	s := sites[0]
	if len(s.Names) != 1 || s.Names[0] != "hotalloc" {
		t.Errorf("site names = %v, want [hotalloc]", s.Names)
	}
	if s.Scope != "line" {
		t.Errorf("scope = %q, want line", s.Scope)
	}
	if want := "runs once at scenario setup, never per frame"; s.Justification != want {
		t.Errorf("justification = %q, want %q", s.Justification, want)
	}
}

// TestAllowSitesPackageScope: allow-package directives surface in the
// audit with their wider scope and justification, so `dcflint
// -audit-allows` shows reviewers exactly how far each carve-out reaches.
func TestAllowSitesPackageScope(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := lint.Load(root, "./internal/lint/testdata/src/allowpkg")
	if err != nil {
		t.Fatal(err)
	}
	sites := lint.AllowSites(pkgs)
	if len(sites) != 1 {
		t.Fatalf("AllowSites = %d sites, want 1:\n%+v", len(sites), sites)
	}
	s := sites[0]
	if len(s.Names) != 1 || s.Names[0] != "wallclock" {
		t.Errorf("site names = %v, want [wallclock]", s.Names)
	}
	if s.Scope != "package" {
		t.Errorf("scope = %q, want package", s.Scope)
	}
	if s.Justification == "" {
		t.Error("package-scoped site lost its justification")
	}
}

// TestFactsSchedParams pins the forwarded-parameter summaries that the
// interprocedural hotalloc rule rides on: armVia forwards its third
// parameter straight into At, and armDeep inherits that through the
// fixpoint.
func TestFactsSchedParams(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := lint.Load(root, "./internal/lint/testdata/src/hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	facts := lint.ComputeFacts(pkgs)
	for _, name := range []string{"armVia", "armDeep"} {
		fn, ok := pkgs[0].Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("no function %s in corpus", name)
		}
		ff := facts.Of(fn)
		if !ff.ForwardsToScheduler(2) {
			t.Errorf("%s: parameter 2 not summarised as scheduler-forwarded", name)
		}
	}
}
