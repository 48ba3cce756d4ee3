package lint

import (
	"go/token"
	"sort"
	"strings"
)

// The //detlint:allow directive suppresses named analyzers for exactly
// one source line. Placement rules:
//
//   - Trailing the offending code, the directive covers its own line:
//
//     if x == 0 { ... } //detlint:allow floateq -- reason
//
//   - On a line of its own, it covers the next line. Consecutive
//     standalone directives stack: all of them cover the first line
//     after the run of directives.
//
//     //detlint:allow floateq
//     //detlint:allow wallclock
//     if x == 0 && time.Now().Before(t) { ... }
//
//   - Anything else — a blank line or unrelated code between directive
//     and target — breaks the association and the directive silently
//     covers a line where nothing is reported. Keeping the rule this
//     rigid is deliberate: a suppression that can drift away from the
//     code it excuses is worse than no suppression.
//
// Several names may share one directive ("//detlint:allow a b"). Text
// after a "--" field is a free-form justification; the pre-merge gate
// does not require it, but review does.
//
// The //detlint:allow-package variant suppresses the named analyzers
// for the WHOLE package the file belongs to. It exists for packages
// whose domain legitimately is the thing an analyzer bans — the
// benchmark harness times runs on the wall clock by nature — where
// per-line directives would be pure noise. The blast radius is a
// package, so the justification after "--" is mandatory: a bare
// allow-package is reported as a diagnostic, not merely flagged by the
// audit. `dcflint -audit-allows` lists package-scoped sites alongside
// line sites, labelled with their scope.

// allowIndex records the analyzer names suppressed per file and line,
// plus the names suppressed for the entire package.
type allowIndex struct {
	lines map[string]map[int]map[string]bool
	pkg   map[string]bool
}

func newAllowIndex() allowIndex {
	return allowIndex{
		lines: make(map[string]map[int]map[string]bool),
		pkg:   make(map[string]bool),
	}
}

func (ai allowIndex) add(file string, line int, name string) {
	lines := ai.lines[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		ai.lines[file] = lines
	}
	names := lines[line]
	if names == nil {
		names = make(map[string]bool)
		lines[line] = names
	}
	names[name] = true
}

func (ai allowIndex) addPackage(name string) {
	ai.pkg[name] = true
}

func (ai allowIndex) allows(file string, line int, name string) bool {
	return ai.pkg[name] || ai.lines[file][line][name]
}

const (
	directivePrefix  = "//detlint:"
	allowVerb        = "allow"
	allowPackageVerb = "allow-package"
)

// parseAllowArgs splits a directive's argument string into analyzer
// names and the justification after "--". A nested "//" starts an
// unrelated trailing comment and ends the name list.
func parseAllowArgs(argstr string) (names []string, just string) {
	fields := strings.Fields(argstr)
	for i, field := range fields {
		if field == "--" {
			just = strings.TrimSpace(strings.Join(fields[i+1:], " "))
			break
		}
		if strings.HasPrefix(field, "//") {
			break
		}
		names = append(names, field)
	}
	return names, just
}

// An AllowSite is one //detlint:allow or //detlint:allow-package
// directive, for the audit mode: where it is, what it suppresses, how
// far the suppression reaches, and the justification after "--" (empty
// when the author left none — which `dcflint -audit-allows` treats as a
// failure, since an unexplained suppression is a landmine for the next
// reader).
type AllowSite struct {
	Pos   token.Position `json:"pos"`
	Names []string       `json:"names"`
	// Scope is "line" for //detlint:allow and "package" for
	// //detlint:allow-package.
	Scope         string `json:"scope"`
	Justification string `json:"justification"`
}

// AllowSites scans every package for allow directives, in position
// order. Malformed directives are skipped here — Run reports them as
// diagnostics already.
func AllowSites(pkgs []*Package) []AllowSite {
	var sites []AllowSite
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					verb, argstr, _ := strings.Cut(rest, " ")
					var scope string
					switch verb {
					case allowVerb:
						scope = "line"
					case allowPackageVerb:
						scope = "package"
					default:
						continue
					}
					names, just := parseAllowArgs(argstr)
					if len(names) == 0 {
						continue
					}
					sites = append(sites, AllowSite{
						Pos:           pkg.Fset.Position(c.Slash),
						Names:         names,
						Scope:         scope,
						Justification: just,
					})
				}
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i].Pos, sites[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return sites
}

// parseDirectives scans every comment in the package for detlint
// directives, resolving each to the source line (or the whole package,
// for allow-package) it covers. Malformed directives — an unknown verb,
// a missing or unknown analyzer name, an allow-package without its
// mandatory justification — are reported as diagnostics under the
// pseudo-analyzer "detlint" so that a typo cannot silently suppress
// nothing.
func parseDirectives(pkg *Package, known map[string]bool) (allowIndex, []Diagnostic) {
	allow := newAllowIndex()
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		p := &Pass{Analyzer: &Analyzer{Name: "detlint"}, Pkg: pkg, diags: &diags}
		p.Reportf(pos, format, args...)
	}

	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		src := pkg.Src[filename]
		tf := pkg.Fset.File(f.Pos())

		// First pass: collect each directive with its line and whether it
		// stands alone on that line (nothing but whitespace before it).
		type directive struct {
			line       int
			standalone bool
			names      []string
		}
		var dirs []directive
		standaloneAt := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				verb, argstr, _ := strings.Cut(rest, " ")
				if verb != allowVerb && verb != allowPackageVerb {
					report(c.Slash, "unknown detlint directive %q (only %q and %q are recognised)",
						directivePrefix+verb, directivePrefix+allowVerb, directivePrefix+allowPackageVerb)
					continue
				}
				// "--" starts the justification; a nested "//" starts an
				// unrelated trailing comment (e.g. a test harness
				// expectation). Either ends the name list.
				names, just := parseAllowArgs(argstr)
				if len(names) == 0 {
					report(c.Slash, "missing analyzer name in %s directive", directivePrefix+verb)
					continue
				}
				ok := true
				for _, n := range names {
					if !known[n] {
						report(c.Slash, "unknown analyzer %q in %s directive", n, directivePrefix+verb)
						ok = false
					}
				}
				if !ok {
					continue
				}
				if verb == allowPackageVerb {
					// Package-wide suppression: the justification is not
					// optional — the audit could catch it later, but a
					// whole-package carve-out with no recorded reason should
					// not even parse clean.
					if just == "" {
						report(c.Slash, "missing -- justification in %s directive (package-wide suppressions must carry a reason)",
							directivePrefix+allowPackageVerb)
						continue
					}
					for _, n := range names {
						allow.addPackage(n)
					}
					continue
				}

				line := pkg.Fset.Position(c.Slash).Line
				lineStart := tf.Offset(tf.LineStart(line))
				commentStart := tf.Offset(c.Slash)
				standalone := len(strings.TrimSpace(string(src[lineStart:commentStart]))) == 0
				dirs = append(dirs, directive{line: line, standalone: standalone, names: names})
				if standalone {
					standaloneAt[line] = true
				}
			}
		}

		// Second pass: resolve targets. A trailing directive covers its
		// own line; a standalone directive skips past any stacked
		// directives below it and covers the first non-directive line.
		for _, d := range dirs {
			target := d.line
			if d.standalone {
				target = d.line + 1
				for standaloneAt[target] {
					target++
				}
			}
			for _, n := range d.names {
				allow.add(filename, target, n)
			}
		}
	}
	return allow, diags
}
