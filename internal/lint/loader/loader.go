// Package loader type-checks packages from source using only the
// standard library: go/build selects the files (honoring build
// constraints), go/parser parses them, and go/types checks them with the
// stdlib "source" importer resolving imports — including module-local
// ones, which go/build routes through the go command. It exists because
// this container has no golang.org/x/tools/go/packages; it serves
// cmd/mosvet's standalone mode and the linttest fixture harness.
// cmd/mosvet's unitchecker mode does not use it (go vet hands that mode
// pre-built export data instead).
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"repro/internal/lint/analysis"
)

var (
	mu sync.Mutex // the shared importer and build.Default.Dir are not concurrency-safe

	fset = token.NewFileSet()
	// One importer for the whole process: it memoizes every package it
	// type-checks, so the second fixture that imports repro/internal/sim
	// pays nothing.
	sharedImporter = importer.ForCompiler(fset, "source", nil)
)

// Dir loads and type-checks the single package in dir, giving it the
// stated import path. The import path matters: analyzers self-gate on it
// (detlint guards repro/internal/..., cachekeylint only
// repro/internal/harness), so fixtures choose the path they want to be
// seen under.
func Dir(dir, importPath string) (*analysis.Package, error) {
	mu.Lock()
	defer mu.Unlock()

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := moduleRoot(abs)
	if err != nil {
		return nil, err
	}
	// go/build shells out to the go command for module-local import
	// resolution and runs it in build.Default.Dir; point it at the
	// module so "repro/..." imports resolve no matter the process cwd.
	oldDir := build.Default.Dir
	build.Default.Dir = root
	defer func() { build.Default.Dir = oldDir }()

	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer: sharedImporter,
		Sizes:    types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %w", importPath, err)
	}
	return &analysis.Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Listed is one package named by a go list pattern.
type Listed struct {
	Dir        string
	ImportPath string
}

// List resolves package patterns (./..., repro/internal/mem, ...) to
// directories via the go command, run in dir so relative patterns mean
// what they mean on the caller's command line.
func List(dir string, patterns ...string) ([]Listed, error) {
	args := append([]string{"list", "-json=Dir,ImportPath", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []Listed
	dec := json.NewDecoder(&out)
	for dec.More() {
		var l Listed
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("loader: go list decode: %w", err)
		}
		pkgs = append(pkgs, l)
	}
	return pkgs, nil
}

// moduleRoot finds the enclosing module directory of dir.
func moduleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		d = parent
	}
}
