// Package detlint flags nondeterminism sources in simulator code. The
// reproduction's headline guarantees — serial==parallel, fresh==reused,
// shard-merge byte-identical — all assume experiment results are pure
// functions of (options, seed, cost model). Wall-clock reads, the global
// math/rand source, unordered map iteration feeding output, and
// free-range goroutines each break that purity in ways the determinism
// suite only catches when a run happens to diverge; detlint rejects them
// at vet time.
//
// Scope: every repro/internal/... package except the lint tree itself.
// Deliberate wall-clock boundaries (the perf suite's timers, the
// watchdog racing real time against a wedged simulation) carry
// //mosvet:allow or //mosvet:allowfile annotations with their reasons.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the detlint analysis.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "flag nondeterminism sources (wall clock, global math/rand, ordered output from map ranges, stray goroutines) in simulator packages",
	Run:  run,
}

// wallClockFuncs are the time package entry points that read or schedule
// against the real clock. Purely arithmetic helpers (Duration methods,
// Unix, Date) are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRandExceptions are math/rand functions that construct an
// explicitly seeded generator instead of touching the global source.
var globalRandExceptions = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "repro/internal/") ||
		strings.HasPrefix(path, "repro/internal/lint") {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				if path != "repro/internal/sim" {
					pass.Reportf(n.Pos(),
						"goroutine spawned outside the sim engine: simulated concurrency must go through Engine.Spawn so the scheduler owns all interleaving")
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			scope := decl
			ast.Inspect(decl, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok {
					checkMapRange(pass, rng, scope)
				}
				return true
			})
		}
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if _, isSel := pass.TypesInfo.Selections[sel]; isSel {
		return // a method call, not a package-level function
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock time.%s in simulator code: simulated time comes from the engine (Proc.Now); a deliberate real-time boundary needs //mosvet:allow detlint <reason>",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExceptions[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global %s.%s: the global source is seeded per process, not per run — draw from the engine PRNG (internal/xrand) instead",
				fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRange flags map-range loops whose bodies accumulate
// order-sensitive state declared outside the loop: appends to a slice,
// string or floating-point op-assigns, and writes to an outer
// writer/printer. Map iteration order is deliberately randomized by the
// runtime, so any of these makes output depend on the iteration — the
// fix is to collect and sort the keys first.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, scope ast.Node) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	outer := func(id *ast.Ident) bool {
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAccumAssign(pass, n, outer, scope)
		case *ast.CallExpr:
			checkOrderedWrite(pass, n, outer)
		}
		return true
	})
}

func checkAccumAssign(pass *analysis.Pass, as *ast.AssignStmt, outer func(*ast.Ident) bool, scope ast.Node) {
	// out = append(out, ...) with out declared outside the loop — unless
	// the same declaration later sorts out, which is exactly the
	// collect-then-sort idiom this check exists to recommend.
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if tgt, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && outer(tgt) &&
					!sortedInScope(pass, scope, pass.TypesInfo.Uses[tgt]) {
					pass.Reportf(as.Pos(),
						"append to %s inside a map range: iteration order is randomized, so the slice's element order is nondeterministic — range over sorted keys instead",
						tgt.Name)
				}
			}
		}
		return
	}
	// Order-sensitive op-assigns: string concatenation and float
	// arithmetic (non-associative, so even commutative ops drift
	// bit-wise with order). Integer accumulation is order-independent
	// and stays legal.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok || !outer(id) {
		return
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	if !ok {
		return
	}
	info := basic.Info()
	isString := info&types.IsString != 0 && as.Tok == token.ADD_ASSIGN
	isFloat := info&(types.IsFloat|types.IsComplex) != 0
	if isString || isFloat {
		pass.Reportf(as.Pos(),
			"order-sensitive accumulation into %s inside a map range: iteration order is randomized — range over sorted keys instead",
			id.Name)
	}
}

// sortedInScope reports whether obj is passed to a sort or slices
// package call anywhere in scope — the collect-then-sort idiom, whose
// result order is deterministic even though the collection order is not.
func sortedInScope(pass *analysis.Pass, scope ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func checkOrderedWrite(pass *analysis.Pass, call *ast.CallExpr, outer func(*ast.Ident) bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	name := fn.Name()
	if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod {
		// Writer/builder methods on something declared outside the loop.
		recv, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || !outer(recv) {
			return
		}
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print", "Println":
			pass.Reportf(call.Pos(),
				"%s.%s inside a map range emits output in randomized iteration order — range over sorted keys instead",
				recv.Name, name)
		}
		return
	}
	// fmt.Print*/Fprint* stream in iteration order no matter the sink.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		pass.Reportf(call.Pos(),
			"fmt.%s inside a map range emits output in randomized iteration order — range over sorted keys instead",
			name)
	}
}
