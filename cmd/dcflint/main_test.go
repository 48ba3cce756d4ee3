package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcfguard/internal/lint"
)

// testDiags returns one analyzer finding and one directive finding, both
// at absolute paths below the working directory.
func testDiags(t *testing.T) []lint.Diagnostic {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return []lint.Diagnostic{
		{Analyzer: "floateq", Pos: token.Position{Filename: filepath.Join(wd, "a", "x.go"), Line: 3, Column: 7}, Message: "float equality"},
		{Analyzer: "detlint", Pos: token.Position{Filename: filepath.Join(wd, "b.go"), Line: 9, Column: 1}, Message: "unknown analyzer"},
	}
}

func TestRenderText(t *testing.T) {
	b, err := render("text", testDiags(t))
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("a", "x.go") + ":3:7: floateq: float equality\n" +
		"b.go:9:1: detlint: unknown analyzer\n"
	if string(b) != want {
		t.Errorf("text report:\n%s\nwant:\n%s", b, want)
	}
}

func TestRenderSARIF(t *testing.T) {
	b, err := render("sarif", testDiags(t))
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(b, &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("SARIF has %d runs, want 1", len(log.Runs))
	}
	sr := log.Runs[0]
	var ids []string
	for _, r := range sr.Tool.Driver.Rules {
		ids = append(ids, r.ID)
	}
	var want []string
	for _, a := range lint.All() {
		want = append(want, a.Name)
	}
	want = append(want, "detlint")
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("SARIF rules = %v, want one per analyzer plus detlint: %v", ids, want)
	}
	if len(sr.Results) != 2 {
		t.Fatalf("SARIF has %d results, want 2", len(sr.Results))
	}
	loc := sr.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != filepath.Join("a", "x.go") || loc.Region.StartLine != 3 || loc.Region.StartColumn != 7 {
		t.Errorf("SARIF location = %+v, want relative a/x.go:3:7", loc)
	}
	if sr.Results[1].RuleID != "detlint" {
		t.Errorf("SARIF result 1 rule = %q, want detlint", sr.Results[1].RuleID)
	}
}

func TestRenderUnknownFormat(t *testing.T) {
	if _, err := render("xml", testDiags(t)); err == nil {
		t.Error("render(xml) returned no error")
	}
}

// TestRelpathOutsideWorkdir: a file above the working directory keeps
// its absolute path rather than gaining a ../ prefix.
func TestRelpathOutsideWorkdir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(filepath.Dir(wd), "y.go")
	if got := relpath(outside); got != outside {
		t.Errorf("relpath(%q) = %q, want it unchanged", outside, got)
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		pkg, frag string
		want      bool
	}{
		{"dcfguard/internal/lint", "internal/lint", true},
		{"dcfguard/internal/lint/linttest", "internal/lint", true},
		{"dcfguard/internal/lint/testdata/src/floateq", "internal/lint", true},
		{"dcfguard/internal/linter", "internal/lint", false},
		{"internal/lint", "internal/lint", true},
		{"internal/lint/linttest", "internal/lint", true},
		{"dcfguard/internal/simx", "sim", false},
		{"dcfguard/xinternal/sim", "internal/sim", false},
	}
	for _, c := range cases {
		if got := inScope(c.pkg, c.frag); got != c.want {
			t.Errorf("inScope(%q, %q) = %v, want %v", c.pkg, c.frag, got, c.want)
		}
	}
}

// loadCorpus loads one testdata corpus. The corpora sit under
// internal/lint, outside dcflint's scope, so the tests that need their
// findings call check on them directly.
func loadCorpus(t *testing.T, name string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(".", "../../internal/lint/testdata/src/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestExitCodes pins the contract make lint and CI rely on: 0 when
// clean, 1 on findings, 2 on a usage or load error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		code func(stdout, stderr *bytes.Buffer) int
		want int
	}{
		{"clean corpus", func(o, e *bytes.Buffer) int {
			pkgs := loadCorpus(t, "sim")
			return check(pkgs, "text", "", o, e)
		}, 0},
		{"corpus with findings", func(o, e *bytes.Buffer) int {
			pkgs := loadCorpus(t, "floateq")
			return check(pkgs, "text", "", o, e)
		}, 1},
		{"findings excluded by default scope", func(o, e *bytes.Buffer) int {
			return run([]string{"../../internal/lint/testdata/src/floateq"}, o, e)
		}, 0},
		{"bad pattern", func(o, e *bytes.Buffer) int { return run([]string{"./no-such-package"}, o, e) }, 2},
		{"unknown flag", func(o, e *bytes.Buffer) int { return run([]string{"-fix"}, o, e) }, 2},
		{"unknown format", func(o, e *bytes.Buffer) int {
			return run([]string{"-format", "xml", "../../internal/lint/testdata/src/sim"}, o, e)
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := c.code(&stdout, &stderr); got != c.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestFindingsReport: the corpus with findings renders one text line
// per finding, and the summary goes to stderr.
func TestFindingsReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	pkgs := loadCorpus(t, "floateq")
	if code := check(pkgs, "text", "", &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		if !strings.Contains(l, ": floateq: ") {
			t.Errorf("unexpected report line %q", l)
		}
	}
	if want := fmt.Sprintf("dcflint: %d finding(s)\n", len(lines)); stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}
