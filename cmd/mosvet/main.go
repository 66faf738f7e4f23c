// Command mosvet runs the repository's custom static analyzers
// (internal/lint): detlint, fprintcheck, cachekeylint. It
// speaks the `go vet -vettool` protocol, so CI and developers run it
// through the toolchain, and it also runs standalone over package
// patterns for quick local iteration.
//
// Usage:
//
//	go vet -vettool=$(which mosvet) ./...
//	go vet -vettool=./bin/mosvet -detlint ./internal/sim/
//	mosvet -list
//	mosvet ./...
//	mosvet -only detlint,fprintcheck ./internal/...
//
// Diagnostics go to stderr as file:line:col: analyzer: message. Exit
// status is 0 when the tree is clean, 1 when any diagnostic fires (or a
// package fails to load), 2 on usage errors — matching cmd/mosbench's
// conventions. A finding that is a sanctioned boundary is suppressed in
// the source with //mosvet:allow <analyzer> <reason> (same line or the
// line above) or //mosvet:allowfile <analyzer> <reason>; the reason is
// mandatory.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

func main() {
	args := os.Args[1:]
	// The two toolchain handshake queries arrive before normal flag
	// parsing: cmd/go probes `-V=full` for a cache-busting tool identity
	// and `-flags` for the flag set it may forward from the go vet
	// command line.
	if len(args) == 1 && args[0] == "-V=full" {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		printFlagDefs()
		return
	}

	fs := flag.NewFlagSet("mosvet", flag.ExitOnError)
	list := fs.Bool("list", false, "print the analyzer registry and exit")
	only := fs.String("only", "", "comma-separated analyzers to run (default: all)")
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, false, "run only explicitly enabled analyzers; enable "+a.Name)
	}
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mosvet [-list] [-only a,b] [package patterns]")
		fmt.Fprintln(os.Stderr, "   or: go vet -vettool=mosvet [-detlint ...] ./...")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only, enabled)
	if err != nil {
		fatalUsage(err.Error())
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		unitcheck(rest[0], analyzers)
		return
	}
	standalone(rest, analyzers)
}

// selectAnalyzers resolves -only and the per-analyzer bool flags; with
// neither given, every registered analyzer runs.
func selectAnalyzers(only string, enabled map[string]*bool) ([]*analysis.Analyzer, error) {
	if only != "" {
		return lint.Select(only)
	}
	var names []string
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			names = append(names, a.Name)
		}
	}
	if len(names) == 0 {
		return lint.All(), nil
	}
	return lint.Select(strings.Join(names, ","))
}

// printVersion answers `mosvet -V=full`: cmd/go requires at least three
// fields with "version" second, and keys its action cache on the rest —
// hashing the executable means a rebuilt mosvet invalidates cached vet
// results, exactly like vet's own unitchecker.
func printVersion() {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("mosvet version devel comments-go-here buildID=%02x\n", h.Sum(nil))
}

// printFlagDefs answers `mosvet -flags`: the JSON flag inventory cmd/go
// consults to decide which go vet arguments to forward to the tool.
func printFlagDefs() {
	type flagDef struct {
		Name  string
		Bool  bool
		Usage string
	}
	defs := []flagDef{
		{Name: "only", Bool: false, Usage: "comma-separated analyzers to run"},
	}
	for _, a := range lint.All() {
		defs = append(defs, flagDef{Name: a.Name, Bool: true, Usage: "enable " + a.Name})
	}
	out, err := json.Marshal(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// vetConfig is the per-package configuration cmd/go writes to
// <objdir>/vet.cfg; field set per cmd/go/internal/work.vetConfig.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	GoVersion                 string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package under the go vet protocol: parse the
// listed files, typecheck against the compiler's export data, run the
// analyzers, print surviving diagnostics.
func unitcheck(cfgPath string, analyzers []*analysis.Analyzer) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", cfgPath, err))
	}
	// cmd/go may expect the vetx (facts) output even from runs it only
	// wanted facts from; mosvet's analyzers are package-local and export
	// none, so an empty file is the complete answer.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly {
		return
	}
	// Dependencies outside this module (std, vendored code) are not ours
	// to police; analyzers also self-gate, but skipping the typecheck
	// entirely keeps `go vet -vettool` fast.
	if cfg.ImportPath != "repro" && !strings.HasPrefix(cfg.ImportPath, "repro/") {
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return
			}
			fatal(err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if p, ok := cfg.ImportMap[path]; ok {
			path = p
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tc := types.Config{
		Importer: importer.ForCompiler(fset, cfg.Compiler, lookup),
		Sizes:    types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
	}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
	}
	info := analysis.NewInfo()
	tpkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		fatal(fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err))
	}
	pkg := &analysis.Package{Fset: fset, Files: files, Types: tpkg, Info: info}
	if n := report(pkg, analyzers); n > 0 {
		os.Exit(1)
	}
}

// standalone analyzes package patterns (default ./...) without the
// toolchain: list packages with go list, load each from source.
func standalone(patterns []string, analyzers []*analysis.Analyzer) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.List(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	total, failed := 0, 0
	for _, p := range pkgs {
		pkg, err := loader.Dir(p.Dir, p.ImportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mosvet: %s: %v\n", p.ImportPath, err)
			failed++
			continue
		}
		total += report(pkg, analyzers)
	}
	if total > 0 || failed > 0 {
		os.Exit(1)
	}
}

// report runs the analyzers over one loaded package and prints the
// surviving diagnostics; it returns how many fired.
func report(pkg *analysis.Package, analyzers []*analysis.Analyzer) int {
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, analysis.Format(pkg.Fset, d))
	}
	return len(diags)
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "mosvet:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mosvet:", err)
	os.Exit(1)
}
