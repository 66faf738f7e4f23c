// Package cachekeylint enforces the harness's cache-key completeness
// invariant. Every sweep point is memoized under Options.cacheKey (plus
// the section chosen by cacheSectionID): a new Options field that changes
// simulated behavior but is forgotten from the key makes differently-
// configured runs alias the same cached point — the silent wrong-results
// failure mode the fault/arrival/link/shed keys exist to prevent.
//
// The rule is mechanical so it cannot be forgotten: every field of
// harness.Options must either be referenced (transitively, through
// same-package helpers like seed/faultString/machine) from the cache-key
// builders, or carry an explicit //mosvet:allow cachekeylint <reason>
// annotation recording why it cannot affect a point's value.
package cachekeylint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the cachekeylint analysis.
var Analyzer = &analysis.Analyzer{
	Name: "cachekeylint",
	Doc:  "flag harness.Options fields missing from the sweep cache-key builders and not annotated as key-exempt",
	Run:  run,
}

const harnessPath = "repro/internal/harness"

// keyBuilders are the methods whose transitive field reads define the
// cache identity of a sweep point.
var keyBuilders = map[string]bool{"cacheKey": true, "cacheSectionID": true}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != harnessPath {
		return nil
	}
	obj := pass.Pkg.Scope().Lookup("Options")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}

	pkg := &analysis.Package{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
	funcs := analysis.DeclaredFuncs(pkg)

	// Builders by name with an Options receiver.
	var roots []*types.Func
	for fn := range funcs {
		if !keyBuilders[fn.Name()] {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			namedOf(sig.Recv().Type()) == tn {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		pass.Reportf(obj.Pos(),
			"Options has no cache-key builder (method named cacheKey or cacheSectionID): sweep memoization cannot be keyed — every cached point would alias")
		return nil
	}

	// Same-package functions reachable from the builders.
	reach := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if reach[fn] {
			continue
		}
		reach[fn] = true
		decl, ok := funcs[fn]
		if !ok || decl.Body == nil {
			continue
		}
		analysis.WalkCalls(decl.Body, func(call *ast.CallExpr) {
			if callee := analysis.StaticCallee(pass.TypesInfo, call); callee != nil &&
				analysis.SamePackage(callee, pass.Pkg) && !reach[callee] {
				queue = append(queue, callee)
			}
		})
	}

	// Options fields read anywhere in the reachable set.
	fieldSet := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fieldSet[st.Field(i)] = true
	}
	used := map[*types.Var]bool{}
	for fn := range reach {
		decl, ok := funcs[fn]
		if !ok || decl.Body == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok {
				return true
			}
			if f, ok := selection.Obj().(*types.Var); ok && fieldSet[f] {
				used[f] = true
			}
			return true
		})
	}

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if used[f] {
			continue
		}
		pass.Reportf(f.Pos(),
			"Options.%s is not folded into the sweep cache key (cacheKey/cacheSectionID): if it can change a point's value, cached runs will alias; fold it in, or annotate //mosvet:allow cachekeylint <why it cannot affect results>",
			f.Name())
	}
	return nil
}

func namedOf(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
