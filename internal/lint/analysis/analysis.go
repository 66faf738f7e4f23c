// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: just enough driver-independent analyzer
// plumbing for the mosvet suite to run the same analyzer code under
// `go vet -vettool` (cmd/mosvet) and under the linttest fixture harness. The container
// bakes in only the standard toolchain, so the suite depends on nothing
// outside std.
//
// The shapes mirror x/tools deliberately (Analyzer, Pass, Diagnostic), so
// if the real module ever becomes available the analyzers port by
// swapping one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only lists, and
	// //mosvet:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by `mosvet -list`.
	Doc string
	// Run applies the analyzer to one type-checked package, reporting
	// problems via pass.Report. Analyzers self-gate on pass.Pkg.Path():
	// running one over a package outside its scope reports nothing.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver owns suppression
	// (//mosvet:allow) and test-file filtering; analyzers just report.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	// Pos anchors the problem; the allow-directive scope is its line.
	Pos token.Pos
	// Analyzer is the reporting analyzer's name, filled in by the driver.
	Analyzer string
	// Message states the problem and what to do about it.
	Message string
}

// Package is one loaded, type-checked package: what a driver needs to run
// analyzers over it. Built by linttest (from source) or cmd/mosvet (from
// gc export data).
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
