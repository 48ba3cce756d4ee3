package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// inspectWithStack walks the file like ast.Inspect but also hands the
// visitor the stack of enclosing nodes (outermost first, n last).
func inspectWithStack(f *ast.File, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !visit(n, stack) {
			// The visitor pruned this subtree; ast.Inspect will not send
			// the matching nil, so pop now.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// pkgFuncOf resolves a selector like time.Now or rand.Intn to (import
// path, function name). It returns ok=false for anything that is not a
// direct reference to a package-level function of an imported package.
func pkgFuncOf(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// namedRecvOf returns the named receiver type of a method call selector
// (dereferencing one level of pointer), or nil if sel is not a method
// selection.
func namedRecvOf(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	t := s.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasMethod reports whether named (or *named) has a method with the
// given name, exported or not, declared in any package.
func hasMethod(named *types.Named, name string) bool {
	if named == nil {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// pkgBase returns the last path element of an import path: the
// conventional package name. Used for duck-typed package matching so the
// analyzers recognise both the real simulator packages and the stub
// packages under testdata/src.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// containsFloat reports whether comparing two values of type t with ==
// performs any floating-point equality: t itself is float/complex, or t
// is a struct or array with a float component at any depth.
func containsFloat(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsFloat(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return containsFloat(u.Elem())
	}
	return false
}
