package dcfguard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileRunFilters: every `go test -run '<re>' <pkgs>` in the
// Makefile must select at least one top-level Test, Fuzz or Example
// function in each package it lists, and every -fuzz target must name
// a Fuzz function there. A filter that matches nothing passes as "no
// tests to run", so a gate can check nothing for many changes before
// anyone notices. The test-nothing filter '^$$' (the bench and fuzz
// lines) is exempt.
func TestMakefileRunFilters(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range makefileCommands(string(src)) {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		re, pkgs := runFilter(line)
		if m := fuzzFlag.FindStringSubmatch(line); m != nil {
			re = "^" + m[1] + "$"
		}
		if re == "" || re == "^$" {
			continue
		}
		filter, err := regexp.Compile(re)
		if err != nil {
			t.Errorf("bad filter %q: %v", re, err)
			continue
		}
		for _, pkg := range pkgs {
			checked++
			if !anyTestMatches(t, pkg, filter) {
				t.Errorf("Makefile filter %q matches no test in %s:\n\t%s", re, pkg, line)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run filter in the Makefile")
	}
}

// makefileCommands returns the Makefile's lines with backslash
// continuations joined.
func makefileCommands(src string) []string {
	return strings.Split(strings.ReplaceAll(src, "\\\n", " "), "\n")
}

var (
	runFlag  = regexp.MustCompile(`-run '([^']*)'`)
	fuzzFlag = regexp.MustCompile(`-fuzz (\w+)`)
)

// runFilter extracts a go test line's -run regexp (make's $$ unescaped)
// and its package arguments.
func runFilter(line string) (re string, pkgs []string) {
	if m := runFlag.FindStringSubmatch(line); m != nil {
		re = strings.ReplaceAll(m[1], "$$", "$")
	}
	for _, f := range strings.Fields(line) {
		if f == "." || strings.HasPrefix(f, "./") {
			pkgs = append(pkgs, f)
		}
	}
	return re, pkgs
}

// anyTestMatches reports whether a top-level Test, Fuzz or Example
// function declared in dir's _test.go files matches filter.
func anyTestMatches(t *testing.T, dir string, filter *regexp.Regexp) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			n := fd.Name.Name
			if (strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") || strings.HasPrefix(n, "Example")) &&
				filter.MatchString(n) {
				return true
			}
		}
	}
	return false
}
