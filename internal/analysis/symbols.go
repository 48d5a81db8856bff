package analysis

import (
	"go/ast"
	"go/types"
	"strings"
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

// isWirePackage reports whether path is the module's wire package.
func isWirePackage(path string) bool {
	return strings.HasSuffix(path, "/internal/wire")
}

// calleeFunc resolves the called function object for direct calls and
// method calls; nil for builtins, conversions and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
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

// isMethodOn reports whether call is a method call name() whose
// receiver type is pkgPath.typeName.
func isMethodOn(info *types.Info, call *ast.CallExpr, pathOK func(string) bool, typeName, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOrPtr(sig.Recv().Type())
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && pathOK(obj.Pkg().Path()) && obj.Name() == typeName
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// funcDecls yields every function declaration in the program with its
// package.
func funcDecls(prog *Program, fn func(*Package, *ast.FuncDecl)) {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn(pkg, fd)
				}
			}
		}
	}
}
