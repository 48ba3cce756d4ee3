// Command dcflint runs the detlint static-analysis suite: the analyzers
// in internal/lint that mechanically enforce the simulator's determinism
// invariants, interprocedurally since v2. See internal/lint and
// DESIGN.md §7 and §12.
//
// Usage:
//
//	dcflint [flags] [package patterns]
//
// With no patterns it analyses ./... . By default every module package
// is checked — simulation internals, cmd/ binaries, and the top-level
// package alike — except the lint tooling itself (it shells out to the
// go command and formats host paths, none of which feeds simulation
// results). -all lifts the scope filter, -scope and -exclude narrow or
// widen it, -analyzers selects a subset of checks and -list prints them.
//
//	-format text|json|sarif   output format (sarif uploads to code scanning)
//	-o file                   write the report to file instead of stdout
//	-audit-allows             list //detlint:allow sites; fail on missing justifications
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

var defaultExclude = "internal/lint"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, returning its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all         = fs.Bool("all", false, "analyze every matched package, ignoring the scope filter")
		scope       = fs.String("scope", "", "comma-separated import-path fragments a package must contain to be analyzed (empty: all)")
		exclude     = fs.String("exclude", defaultExclude, "comma-separated import-path fragments that exempt a package")
		analyzers   = fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
		list        = fs.Bool("list", false, "list analyzers and exit")
		format      = fs.String("format", "text", "output format: text, json, or sarif")
		out         = fs.String("o", "", "write the report to this file instead of stdout")
		auditAllows = fs.Bool("audit-allows", false, "list //detlint:allow directives; exit non-zero if any lacks a -- justification")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dcflint: "+format+"\n", args...)
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	checks := lint.All()
	if *analyzers != "" {
		checks = lint.ByName(strings.Split(*analyzers, ",")...)
		if checks == nil {
			return fail("unknown analyzer in -analyzers=%s", *analyzers)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		return fail("%v", err)
	}

	kept := pkgs
	if !*all {
		kept = nil
		for _, p := range pkgs {
			if *scope != "" && !inScope(p.PkgPath, *scope) {
				continue
			}
			if inScope(p.PkgPath, *exclude) {
				continue
			}
			kept = append(kept, p)
		}
	}

	if *auditAllows {
		return runAuditAllows(kept, stdout, stderr)
	}

	// Facts are computed over every loaded package, so scoped runs still
	// see callees outside the scope.
	diags := lint.RunScoped(pkgs, kept, checks)

	report, err := render(*format, diags)
	if err != nil {
		return fail("%v", err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, report, 0o644); err != nil {
			return fail("%v", err)
		}
	} else if _, err := stdout.Write(report); err != nil {
		return fail("%v", err)
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

// inScope reports whether pkgPath contains any of the comma-separated
// fragments as a path component boundary match.
func inScope(pkgPath, fragments string) bool {
	for _, frag := range strings.Split(fragments, ",") {
		frag = strings.TrimSuffix(strings.TrimSpace(frag), "/")
		if frag == "" {
			continue
		}
		if pkgPath == frag ||
			strings.HasPrefix(pkgPath, frag+"/") ||
			strings.Contains(pkgPath, "/"+frag+"/") ||
			strings.HasSuffix(pkgPath, "/"+frag) {
			return true
		}
	}
	return false
}
