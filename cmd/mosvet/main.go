// Command mosvet runs the repository's custom static analyzers
// (internal/lint): detlint, fprintcheck, cachekeylint. It runs only
// under the `go vet -vettool` protocol: go vet hands it one package's
// vet.cfg at a time, and -only picks the analyzers (default: all).
//
// Usage:
//
//	go vet -vettool=$(which mosvet) ./...
//	go vet -vettool=./mosvet -only=detlint,fprintcheck ./internal/sim/
//	mosvet -list
//
// Diagnostics go to stderr as file:line:col: analyzer: message. Exit
// status is 0 when the package is clean, 1 when any diagnostic fires (or
// the package fails to load), 2 on usage errors — anything but one
// *.cfg argument, or an unknown analyzer — matching cmd/mosbench's
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
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=mosvet [-only=a,b] packages")
		fmt.Fprintln(os.Stderr, "   or: mosvet -list")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		if analyzers, err = lint.Select(*only); err != nil {
			fatalUsage(err.Error())
		}
	}

	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fs.Usage()
		os.Exit(2)
	}
	unitcheck(rest[0], analyzers)
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
// analyzers, print surviving diagnostics and exit 1 if any fired.
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
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, analysis.Format(fset, d))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "mosvet:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mosvet:", err)
	os.Exit(1)
}
