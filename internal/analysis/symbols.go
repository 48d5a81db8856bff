package analysis

import (
	"go/ast"
	"go/types"
)

// Shared symbol/type predicates used across analyzers.  Matching is by
// type identity and package path, never by bare name, so the same
// rules hold for the real module and for self-contained fixtures.

// namedOrPtr unwraps a pointer type to its named element.
func namedOrPtr(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	if p, ok := t.(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return n
		}
	}
	return nil
}

// exprType returns the value type of e, or nil.
func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isNamedType reports whether t (or *t) is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOrPtr(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeFunc resolves the called function object for direct calls and
// method calls; nil for builtins, conversions and dynamic calls.  A
// generic function or a method of a generic type resolves to its
// declaration (Origin), whatever it is instantiated with, explicitly
// (f[T](x)) or not.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	if f, ok := info.Uses[id].(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

// isPkgFunc reports whether call invokes the function name from a
// package whose path satisfies pathOK.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pathOK func(string) bool, names ...string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || !pathOK(f.Pkg().Path()) {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}
