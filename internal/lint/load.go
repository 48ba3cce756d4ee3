package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	// Src holds the raw source of every file, keyed by the filename
	// recorded in Fset. The directive scanner and the test harness use it
	// to reason about comment placement on physical lines.
	Src   map[string][]byte
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists the given patterns with the go tool — compiling export data
// for every dependency — then parses and type-checks each matched
// package against that export data. It is a minimal offline stand-in for
// golang.org/x/tools/go/packages: the whole pipeline needs only the
// standard library plus the go command already on PATH.
//
// dir is the directory the go tool runs in (any directory inside the
// module); patterns are go list package patterns, e.g. "./..." or an
// explicit directory such as "./internal/lint/testdata/src/wallclock"
// (explicit paths reach inside testdata, which pattern expansion skips).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		targets = append(targets, lp)
	}

	fset := token.NewFileSet()
	// The gc importer reads compiler export data; the lookup hands it the
	// build-cache artifact go list -export just produced for each path.
	// ("unsafe" is special-cased by the importer and never hits lookup.)
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, lp := range targets {
		p := &Package{
			PkgPath: lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Src:     make(map[string][]byte),
		}
		for _, name := range lp.GoFiles {
			full := filepath.Join(lp.Dir, name)
			src, err := os.ReadFile(full)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.Src[full] = src
			p.Files = append(p.Files, f)
		}
		p.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, p.Files, p.Info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
		}
		p.Types = tpkg
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
