package lint_test

import (
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
	diags := lint.Run(scope, lint.All())
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
