package analysis

import (
	"go/ast"
	"go/types"
)

// Helpers shared by the call-graph-walking analyzers (fprintcheck,
// cachekeylint): resolving static callees and mapping declared
// functions to their bodies within one package.

// DeclaredFuncs maps every function and method declared in the package to
// its declaration.
func DeclaredFuncs(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// StaticCallee resolves the *types.Func a call expression statically
// invokes — a plain function, a method, or nil for indirect calls
// (function values, interface methods, conversions, builtins).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified function: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// WalkCalls visits every call expression under root, in source order,
// including calls inside nested function literals.
func WalkCalls(root ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// SamePackage reports whether obj is declared in pkg.
func SamePackage(obj types.Object, pkg *types.Package) bool {
	return obj != nil && obj.Pkg() == pkg
}
