package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binary is the mosvet executable under test, built once in TestMain.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mosvet-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "mosvet")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic("building mosvet: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(binary, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("mosvet %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

func TestList(t *testing.T) {
	out, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d:\n%s", code, out)
	}
	for _, name := range []string{"cachekeylint", "detlint", "fprintcheck"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 3 {
		t.Errorf("-list printed %d lines, want 3", n)
	}
}

// TestVersionHandshake checks the `go vet -vettool` identity probe:
// cmd/go requires at least three space-separated fields with "version"
// second, and keys its action cache on the remainder.
func TestVersionHandshake(t *testing.T) {
	out, code := run(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exited %d:\n%s", code, out)
	}
	f := strings.Fields(out)
	if len(f) < 3 || f[0] != "mosvet" || f[1] != "version" {
		t.Fatalf("-V=full output %q: want at least 3 fields with mosvet/version leading", out)
	}
	if last := f[len(f)-1]; !strings.HasPrefix(last, "buildID=") {
		t.Errorf("-V=full last field %q: want buildID=<hash> so rebuilds bust the vet cache", last)
	}
}

// TestFlagsHandshake checks the flag inventory cmd/go consults when
// deciding which go vet arguments to forward: -only is the one analyzer
// selector.
func TestFlagsHandshake(t *testing.T) {
	out, code := run(t, "-flags")
	if code != 0 {
		t.Fatalf("-flags exited %d:\n%s", code, out)
	}
	var defs []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal([]byte(out), &defs); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	if len(defs) != 1 || defs[0].Name != "only" || defs[0].Bool {
		t.Errorf("-flags: want the one string flag only, got %v", defs)
	}
}

func TestUnknownAnalyzerExitsUsage(t *testing.T) {
	out, code := run(t, "-only", "detlnt", "./...")
	if code != 2 {
		t.Fatalf("-only detlnt exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, `unknown analyzer "detlnt"`) || !strings.Contains(out, "candidates: detlint") {
		t.Errorf("unknown-analyzer error should name candidates, got:\n%s", out)
	}
}

// TestNoVetConfigExitsUsage checks that mosvet runs only under go vet:
// anything but one vet.cfg argument is a usage error.
func TestNoVetConfigExitsUsage(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"-only", "detlint"}, {"a.cfg", "b.cfg"}} {
		out, code := run(t, args...)
		if code != 2 {
			t.Errorf("mosvet %v exited %d, want 2:\n%s", args, code, out)
		}
		if !strings.Contains(out, "usage: go vet -vettool=mosvet") {
			t.Errorf("mosvet %v: want usage, got:\n%s", args, out)
		}
	}
}

// TestVetToolClean runs the real analyzers through go vet over a real
// package that must be clean (the fingerprint builder itself), once with
// every analyzer and once with -only.
func TestVetToolClean(t *testing.T) {
	for _, sel := range [][]string{nil, {"-only=detlint,fprintcheck"}} {
		args := append(append([]string{"vet", "-vettool=" + binary}, sel...), "../../internal/fprint/")
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
		if strings.TrimSpace(string(out)) != "" {
			t.Errorf("go %v not silent:\n%s", args, out)
		}
	}
}
