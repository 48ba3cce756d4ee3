// Command dcflint runs the detlint static-analysis suite: the analyzers
// in internal/lint that mechanically enforce the simulator's determinism
// invariants. See internal/lint and DESIGN.md §7 and §12.
//
// Usage:
//
//	dcflint [flags] [package patterns]
//
// With no patterns it analyses ./... . Every matched package is checked
// except the lint tooling itself (it shells out to the go command and
// formats host paths, none of which feeds simulation results).
//
//	-format text|sarif   output format (sarif uploads to code scanning)
//	-o file              write the report to file instead of stdout
//	-audit-allows        list //detlint:allow sites; fail on missing justifications
//
// Every run loads the packages, computes interprocedural facts over all
// of them, analyzes the scoped packages in parallel and renders the
// findings. Exit status is 0 when clean, 1 when any finding (or, with
// -audit-allows, any unjustified directive) remains, and 2 on a usage
// or load error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dcfguard/internal/lint"
)

// excluded is the import-path fragment of the packages dcflint never
// analyzes: the lint tooling and its corpora.
const excluded = "internal/lint"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, returning its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format      = fs.String("format", "text", "output format: text or sarif")
		out         = fs.String("o", "", "write the report to this file instead of stdout")
		auditAllows = fs.Bool("audit-allows", false, "list //detlint:allow directives; exit non-zero if any lacks a -- justification")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "dcflint: %v\n", err)
		return 2
	}
	var kept []*lint.Package
	for _, p := range pkgs {
		if !inScope(p.PkgPath, excluded) {
			kept = append(kept, p)
		}
	}

	if *auditAllows {
		return runAuditAllows(kept, stdout, stderr)
	}
	return check(pkgs, kept, *format, *out, stdout, stderr)
}

// check analyzes the scope packages, with facts computed over all of
// them so scoped runs still see callees outside the scope, writes the
// report to out (stdout when empty) and returns the exit status.
func check(all, scope []*lint.Package, format, out string, stdout, stderr io.Writer) int {
	diags := lint.RunScoped(all, scope, lint.All())
	report, err := render(format, diags)
	if err == nil {
		if out != "" {
			err = os.WriteFile(out, report, 0o644)
		} else {
			_, err = stdout.Write(report)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "dcflint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dcflint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runAuditAllows lists every //detlint:allow site in the scoped
// packages and returns the exit code: non-zero when any directive lacks
// the "-- justification" trailer. An unexplained suppression is a
// landmine for the next reader; the make lint gate enforces the trailer.
func runAuditAllows(pkgs []*lint.Package, stdout, stderr io.Writer) int {
	sites := lint.AllowSites(pkgs)
	bare := 0
	for _, s := range sites {
		just := s.Justification
		if just == "" {
			just = "MISSING JUSTIFICATION"
			bare++
		}
		verb := "allow"
		if s.Scope == "package" {
			verb = "allow-package"
		}
		fmt.Fprintf(stdout, "%s:%d: %s %s -- %s\n", relpath(s.Pos.Filename), s.Pos.Line, verb, strings.Join(s.Names, " "), just)
	}
	fmt.Fprintf(stderr, "dcflint: %d allow site(s), %d without justification\n", len(sites), bare)
	if bare > 0 {
		return 1
	}
	return 0
}

// inScope reports whether pkgPath contains the import-path fragment
// frag at path-component boundaries.
func inScope(pkgPath, frag string) bool {
	return pkgPath == frag ||
		strings.HasPrefix(pkgPath, frag+"/") ||
		strings.Contains(pkgPath, "/"+frag+"/") ||
		strings.HasSuffix(pkgPath, "/"+frag)
}
