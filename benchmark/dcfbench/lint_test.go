package main

import (
	"strings"
	"testing"

	"dcfguard/internal/lint"
)

// TestDetlintClean holds this package to the module's determinism
// analyzers, which the root module's TestModuleIsClean does not reach
// (the benchmark is a module of its own). Every suppression must carry
// a justification.
func TestDetlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages through go list")
	}
	pkgs, err := lint.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.RunScoped(pkgs, pkgs, lint.All()) {
		t.Errorf("finding: %v", d)
	}
	for _, s := range lint.AllowSites(pkgs) {
		if strings.TrimSpace(s.Justification) == "" {
			t.Errorf("unjustified suppression: %+v", s)
		}
	}
}
