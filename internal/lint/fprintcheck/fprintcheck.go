// Package fprintcheck statically enforces fingerprint-complete cost
// models. The sweep-point cache stores each experiment's points under the
// combined fingerprint of its cost domains (internal/fprint): a numeric
// constant that feeds simulated charging but is missing from its
// package's fingerprint silently poisons the shared cache — retuning the
// constant leaves stale points valid. That bug class is invisible at
// runtime (the cache just serves wrong hits); fprintcheck makes it a vet
// diagnostic.
//
// A cost domain declares its charged constants once, as the fields of
// one table value whose fingerprint renders every field (fprint.Table),
// so a table field is fingerprinted by construction. What is left to
// check is that no cost sits outside a table: in every package that
// imports internal/fprint, fprintcheck reports each package-level
// numeric constant referenced by a function that (transitively, within
// the package) reaches a charging callsite — a method call named
// Advance, Use, AccessSet, Transfer, DMAWrite, Send, Append, ... — including through
// package-level vars. iota enumerations are exempt (they tag variants;
// they are not costs), as is any constant annotated
// //mosvet:allow fprintcheck <reason>. A bare literal charge has the same
// flaw as an untabled constant, so it reports each argument of a
// charging call that is a constant built from literals alone
// (p.Advance(60), p.Advance(4*300 + 800)), unless annotated. The value 1
// is exempt: as an argument it counts one item (nic.Transfer(p, 1) moves
// one packet), never a calibrated magnitude.
package fprintcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the fprintcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "fprintcheck",
	Doc:  "flag numeric constants read on a charging path outside the package's cost table",
	Run:  run,
}

// chargeMethods are the method names that charge simulated cost: engine
// time (Proc), resource queues, the memory system's batch and bulk paths,
// and the network stack's and VFS's byte-charging calls, whose byte
// counts are copied at a per-byte cost.
var chargeMethods = map[string]bool{
	"Advance": true, "AdvanceUser": true, "Use": true,
	"Idle": true, "IdleUntil": true,
	"AccessSet": true, "Transfer": true, "TransferLocal": true,
	"TransferStriped": true, "TransferPlaced": true,
	"DMAWrite": true, "DMARead": true,
	"AccountSys": true, "AccountUser": true,
	"Recv": true, "Send": true, "RecvUDP": true, "SendUDP": true,
	"LoopbackXfer": true, "Append": true, "Read": true,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), "repro/") || !importsFprint(pass.Pkg) {
		// Not a cost domain. (A charging package with no fingerprint at
		// all is caught at experiment registration, which validates
		// declared cost domains.)
		return nil
	}
	idx := index(pass)
	charging := chargingFuncs(pass, idx)
	chargingConsts := map[*types.Const]*types.Func{} // const -> first charging function reading it
	for fn, decl := range idx.funcs {
		if !charging[fn] || strings.HasSuffix(pass.Fset.Position(decl.Pos()).Filename, "_test.go") {
			continue // a test's own charges are not cached
		}
		for _, c := range idx.constRefs(pass, decl.Body) {
			if prev, ok := chargingConsts[c]; !ok || fn.Pos() < prev.Pos() {
				chargingConsts[c] = fn
			}
		}
	}

	flagged := make([]*types.Const, 0, len(chargingConsts))
	for c := range chargingConsts {
		flagged = append(flagged, c)
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].Pos() < flagged[j].Pos() })
	for _, c := range flagged {
		pass.Reportf(c.Pos(),
			"cost constant %s feeds the charging path (via %s) outside the package's cost table: a retune would leave stale cache sections valid — make it a field of the table its fingerprint renders",
			c.Name(), chargingConsts[c].Name())
	}
	reportLiteralCharges(pass)
	return nil
}

// reportLiteralCharges reports every argument of a charging call, outside
// test files, that isLiteralCost.
func reportLiteralCharges(pass *analysis.Pass) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue // a test's own charges are not cached
		}
		analysis.WalkCalls(file, func(call *ast.CallExpr) {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !chargeMethods[sel.Sel.Name] {
				return
			}
			if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
				return
			}
			for _, arg := range call.Args {
				if isLiteralCost(pass, arg) {
					pass.Reportf(arg.Pos(),
						"literal cost %s is charged by %s outside the package's cost table: a retune would leave stale cache sections valid — make it a field of the table its fingerprint renders",
						types.ExprString(arg), sel.Sel.Name)
				}
			}
		})
	}
}

// isLiteralCost reports whether expr is a numeric constant other than 1
// written with literals only: no named constant (the rule above judges
// those), just numbers, operators and conversions such as int64(60).
func isLiteralCost(pass *analysis.Pass, expr ast.Expr) bool {
	v := pass.TypesInfo.Types[expr].Value
	if v == nil || (v.Kind() != constant.Int && v.Kind() != constant.Float) || v.String() == "1" {
		return false
	}
	literal := true
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if _, isType := pass.TypesInfo.Uses[id].(*types.TypeName); !isType {
				literal = false
			}
		}
		return literal
	})
	return literal
}

// importsFprint reports whether pkg declares a cost domain, that is,
// imports the fingerprint package.
func importsFprint(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == "repro/internal/fprint" {
			return true
		}
	}
	return false
}

// pkgIndex is the per-package declaration index the walk needs.
type pkgIndex struct {
	funcs         map[*types.Func]*ast.FuncDecl
	numericConsts map[*types.Const]bool // package-level, numeric, non-iota
	varInit       map[*types.Var]ast.Expr
}

func index(pass *analysis.Pass) *pkgIndex {
	idx := &pkgIndex{
		funcs:         analysis.DeclaredFuncs(&analysis.Package{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}),
		numericConsts: map[*types.Const]bool{},
		varInit:       map[*types.Var]ast.Expr{},
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
			if init != nil {
				idx.varInit[v] = init
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
