// Package linttest is the mosvet analog of
// golang.org/x/tools/go/analysis/analysistest: it type-checks a fixture
// package from a testdata directory from source, runs one analyzer over
// it through the same analysis.Run pipeline cmd/mosvet uses (so
// //mosvet:allow suppression is exercised, not bypassed), and compares
// the surviving diagnostics against `// want "regexp"` comments in the
// fixture sources.
//
// Fixtures load with the standard library only (this module has no
// golang.org/x/tools/go/packages): go/build selects the files, honoring
// build constraints, go/parser parses them, and go/types checks them
// with the "source" importer, which resolves module-local imports
// through the go command. cmd/mosvet needs none of this: go vet hands
// it compiler export data.
//
// Expectation syntax, on the line the diagnostic anchors to:
//
//	m[k] = append(out, v) // want "append to out inside a map range"
//
// Multiple `// want` fragments on one line expect multiple diagnostics.
// A fixture with no want comments asserts the analyzer is silent.
package linttest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
)

// wantRE also accepts a relative line offset (`// want-1 "re"`): the
// expectation anchors that many lines away from the comment — needed
// when the diagnostic lands on a comment line itself (malformed
// //mosvet:allow directives), where a same-line want cannot fit.
var wantRE = regexp.MustCompile(`// want([+-][0-9]+)? (.*)$`)

// Run loads the fixture package in dir (a path relative to the test's
// working directory, conventionally testdata/src/<name>), presents it to
// the analyzer under the given import path, and checks diagnostics
// against the fixture's want comments. The import path matters because
// the analyzers self-gate on it: detlint fixtures want a
// repro/internal/... path, cachekeylint exactly repro/internal/harness.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := load(dir, importPath)
	if err != nil {
		t.Fatalf("linttest: load %s: %v", dir, err)
	}
	got, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: run %s on %s: %v", a.Name, dir, err)
	}
	checkWants(t, pkg, got)
}

// RunSilent loads the fixture like Run but asserts the analyzer reports
// nothing at all, ignoring any want comments in the sources. It exists
// for scope-gating tests: the same violating fixture that fires under a
// repro/internal/... import path must be silent under an out-of-scope
// one.
func RunSilent(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := load(dir, importPath)
	if err != nil {
		t.Fatalf("linttest: load %s: %v", dir, err)
	}
	got, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: run %s on %s: %v", a.Name, dir, err)
	}
	for _, d := range got {
		pos := pkg.Fset.Position(d.Pos)
		t.Errorf("want silence under import path %s, got diagnostic at %s:%d: %s: %s",
			importPath, filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message)
	}
}

var (
	mu sync.Mutex // the shared importer and build.Default.Dir are not concurrency-safe

	fset = token.NewFileSet()
	// One importer for the whole process: it memoizes every package it
	// type-checks, so the second fixture that imports repro/internal/sim
	// pays nothing.
	sharedImporter = importer.ForCompiler(fset, "source", nil)
)

// load type-checks the single package in dir, giving it the stated
// import path.
func load(dir, importPath string) (*analysis.Package, error) {
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
		return nil, err
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
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &analysis.Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// moduleRoot finds the enclosing module directory of dir.
func moduleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

func checkWants(t *testing.T, pkg *analysis.Package, got []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		wants = append(wants, parseWants(t, pkg.Fset, fname, f)...)
	}
	for _, d := range got {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.met || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s",
				filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("missing diagnostic at %s:%d matching %s",
				filepath.Base(w.file), w.line, w.raw)
		}
	}
}

func parseWants(t *testing.T, fset *token.FileSet, fname string, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if m[1] != "" {
				off, err := strconv.Atoi(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q", fname, line, m[1])
				}
				line += off
			}
			for _, raw := range splitQuoted(t, fname, line, m[2]) {
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fname, line, raw, err)
				}
				out = append(out, &expectation{file: fname, line: line, re: re, raw: fmt.Sprintf("%q", raw)})
			}
		}
	}
	return out
}

// splitQuoted parses one or more Go-quoted strings: `"a" "b"`.
func splitQuoted(t *testing.T, fname string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s:%d: want expectation must be quoted strings, got %q", fname, line, s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want string %q", fname, line, s)
		}
		out = append(out, s[1:end])
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
