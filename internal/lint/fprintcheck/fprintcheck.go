// Package fprintcheck statically enforces fingerprint-complete cost
// models. The sweep-point cache stores each experiment's points under the
// combined fingerprint of its cost domains (internal/fprint): a numeric
// constant that feeds simulated charging but is missing from its
// package's Fingerprint() silently poisons the shared cache — retuning
// the constant leaves stale points valid. That bug class is invisible at
// runtime (the cache just serves wrong hits); fprintcheck makes it a vet
// diagnostic.
//
// For every package that declares a fingerprint (a Fingerprint-style
// function or a fingerprint var), it computes:
//
//   - charging constants: package-level numeric constants referenced by
//     any function that (transitively, within the package) reaches a
//     charging callsite — a method call named Advance, Use, AccessSet,
//     Transfer, DMAWrite, ... — including through package-level vars;
//   - fingerprinted constants: constants reachable from the fingerprint
//     builders, closed downward over constant declarations (recording
//     `a` covers `b` when a = b*2: b moving changes a's rendered value).
//
// Every charging constant must be fingerprinted. iota enumerations are
// exempt (they tag variants; they are not costs), as is any constant
// annotated //mosvet:allow fprintcheck <reason>.
package fprintcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the fprintcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "fprintcheck",
	Doc:  "flag numeric cost constants referenced on charging paths but missing from the package's Fingerprint()",
	Run:  run,
}

// chargeMethods are the method names that charge simulated cost: engine
// time (Proc), resource queues, and the memory system's batch and bulk
// paths.
var chargeMethods = map[string]bool{
	"Advance": true, "AdvanceUser": true, "Use": true,
	"Idle": true, "IdleUntil": true,
	"AccessSet": true, "Transfer": true, "TransferLocal": true,
	"TransferStriped": true, "TransferPlaced": true,
	"DMAWrite": true, "DMARead": true,
	"AccountSys": true, "AccountUser": true,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), "repro/") {
		return nil
	}
	idx := index(pass)
	if len(idx.fingerprintRoots) == 0 && len(idx.fingerprintVarInits) == 0 {
		// Not a cost domain: nothing to reconcile against. (A charging
		// package with no fingerprint at all is caught at experiment
		// registration, which validates declared cost domains.)
		return nil
	}

	charging := chargingFuncs(pass, idx)
	chargingConsts := map[*types.Const]string{} // const -> sample charging function
	for fn, decl := range idx.funcs {
		if !charging[fn] {
			continue
		}
		for _, c := range idx.constRefs(pass, decl.Body) {
			if _, ok := chargingConsts[c]; !ok {
				chargingConsts[c] = fn.Name()
			}
		}
	}

	covered := fingerprinted(pass, idx)

	var flagged []*types.Const
	for c := range chargingConsts {
		if !covered[c] {
			flagged = append(flagged, c)
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].Pos() < flagged[j].Pos() })
	for _, c := range flagged {
		pass.Reportf(c.Pos(),
			"cost constant %s feeds the charging path (via %s) but is not recorded in this package's fingerprint: a retune would leave stale cache sections valid — add .C(%q, %s) to the Fingerprint builder",
			c.Name(), chargingConsts[c], c.Name(), c.Name())
	}
	return nil
}

// pkgIndex is the per-package declaration index the walk needs.
type pkgIndex struct {
	funcs               map[*types.Func]*ast.FuncDecl
	constSpec           map[*types.Const]*ast.ValueSpec
	numericConsts       map[*types.Const]bool // package-level, numeric, non-iota
	varInit             map[*types.Var]ast.Expr
	fingerprintRoots    []*ast.FuncDecl
	fingerprintVarInits []ast.Expr
}

func index(pass *analysis.Pass) *pkgIndex {
	idx := &pkgIndex{
		funcs:         analysis.DeclaredFuncs(&analysis.Package{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}),
		constSpec:     map[*types.Const]*ast.ValueSpec{},
		numericConsts: map[*types.Const]bool{},
		varInit:       map[*types.Var]ast.Expr{},
	}
	for fn, decl := range idx.funcs {
		if decl.Body != nil && isFingerprintName(fn.Name()) {
			idx.fingerprintRoots = append(idx.fingerprintRoots, decl)
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.CONST:
				indexConstDecl(pass, idx, gd)
			case token.VAR:
				indexVarDecl(pass, idx, gd)
			}
		}
	}
	return idx
}

func isFingerprintName(name string) bool {
	return strings.Contains(strings.ToLower(name), "fingerprint")
}

func indexConstDecl(pass *analysis.Pass, idx *pkgIndex, gd *ast.GenDecl) {
	lastUsedIota := false
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		usesIota := lastUsedIota
		if len(vs.Values) > 0 {
			usesIota = false
			for _, v := range vs.Values {
				ast.Inspect(v, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil &&
							obj.Parent() == types.Universe && obj.Name() == "iota" {
							usesIota = true
						}
					}
					return true
				})
			}
		}
		lastUsedIota = usesIota
		for _, name := range vs.Names {
			c, ok := pass.TypesInfo.Defs[name].(*types.Const)
			if !ok || c.Parent() != pass.Pkg.Scope() {
				continue
			}
			idx.constSpec[c] = vs
			if usesIota {
				continue // an enumeration tag, not a cost
			}
			if basic, ok := c.Type().Underlying().(*types.Basic); ok &&
				basic.Info()&types.IsNumeric != 0 {
				idx.numericConsts[c] = true
			}
		}
	}
}

func indexVarDecl(pass *analysis.Pass, idx *pkgIndex, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok || v.Parent() != pass.Pkg.Scope() {
				continue
			}
			var init ast.Expr
			if len(vs.Values) == len(vs.Names) {
				init = vs.Values[i]
			} else if len(vs.Values) == 1 {
				init = vs.Values[0]
			}
			if init == nil {
				continue
			}
			idx.varInit[v] = init
			if isFingerprintName(v.Name()) {
				idx.fingerprintVarInits = append(idx.fingerprintVarInits, init)
			}
		}
	}
}

// chargingFuncs computes the set of declared functions that reach a
// charging callsite: directly, or by calling a charging function in the
// same package. Nested function literals count as part of their
// enclosing declaration — a cost constant passed to a spawned proc body
// is still this package's charging path.
func chargingFuncs(pass *analysis.Pass, idx *pkgIndex) map[*types.Func]bool {
	direct := func(body ast.Node) bool {
		found := false
		analysis.WalkCalls(body, func(call *ast.CallExpr) {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod && chargeMethods[sel.Sel.Name] {
					found = true
				}
			}
		})
		return found
	}
	charging := map[*types.Func]bool{}
	for fn, decl := range idx.funcs {
		if decl.Body != nil && direct(decl.Body) {
			charging[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, decl := range idx.funcs {
			if charging[fn] || decl.Body == nil {
				continue
			}
			analysis.WalkCalls(decl.Body, func(call *ast.CallExpr) {
				if callee := analysis.StaticCallee(pass.TypesInfo, call); callee != nil && charging[callee] {
					charging[fn] = true
					changed = true
				}
			})
		}
	}
	return charging
}

// constRefs collects the package-level numeric constants referenced under
// node, expanding references to package-level vars through their
// initializers (a constant folded into `var cost = base * 2` still feeds
// whatever uses cost).
func (idx *pkgIndex) constRefs(pass *analysis.Pass, node ast.Node) []*types.Const {
	var out []*types.Const
	seenVar := map[*types.Var]bool{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := pass.TypesInfo.Uses[id].(type) {
			case *types.Const:
				if idx.numericConsts[obj] {
					out = append(out, obj)
				}
			case *types.Var:
				if init, ok := idx.varInit[obj]; ok && !seenVar[obj] {
					seenVar[obj] = true
					walk(init)
				}
			}
			return true
		})
	}
	walk(node)
	return out
}

// fingerprinted computes the covered constant set: constants reachable
// from the fingerprint builders (the Fingerprint-named functions and
// fingerprint var initializers, plus every same-package function they
// call), closed downward over constant declarations.
func fingerprinted(pass *analysis.Pass, idx *pkgIndex) map[*types.Const]bool {
	// Functions reachable from the fingerprint roots.
	reach := map[*types.Func]bool{}
	var queue []ast.Node
	for _, decl := range idx.fingerprintRoots {
		queue = append(queue, decl.Body)
	}
	queue = append(queue, toNodes(idx.fingerprintVarInits)...)
	for len(queue) > 0 {
		body := queue[0]
		queue = queue[1:]
		analysis.WalkCalls(body, func(call *ast.CallExpr) {
			callee := analysis.StaticCallee(pass.TypesInfo, call)
			if callee == nil || reach[callee] {
				return
			}
			if decl, ok := idx.funcs[callee]; ok && decl.Body != nil {
				reach[callee] = true
				queue = append(queue, decl.Body)
			}
		})
	}

	covered := map[*types.Const]bool{}
	add := func(node ast.Node) {
		for _, c := range idx.constRefs(pass, node) {
			covered[c] = true
		}
	}
	for _, decl := range idx.fingerprintRoots {
		add(decl.Body)
	}
	for _, init := range idx.fingerprintVarInits {
		add(init)
	}
	for fn := range reach {
		add(idx.funcs[fn].Body)
	}

	// Downward closure: a recorded constant's rendered value moves when
	// any constant in its own declaration moves, so those are covered
	// too.
	work := make([]*types.Const, 0, len(covered))
	for c := range covered {
		work = append(work, c)
	}
	sort.Slice(work, func(i, j int) bool { return work[i].Pos() < work[j].Pos() })
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		spec, ok := idx.constSpec[c]
		if !ok {
			continue
		}
		for _, v := range spec.Values {
			for _, dep := range idx.constRefs(pass, v) {
				if !covered[dep] {
					covered[dep] = true
					work = append(work, dep)
				}
			}
		}
	}
	return covered
}

func toNodes(exprs []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(exprs))
	for i, e := range exprs {
		out[i] = e
	}
	return out
}
