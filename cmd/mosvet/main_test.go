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
// deciding which go vet arguments to forward.
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
	byName := map[string]bool{}
	for _, d := range defs {
		byName[d.Name] = d.Bool
	}
	for _, name := range []string{"cachekeylint", "detlint", "fprintcheck"} {
		if isBool, ok := byName[name]; !ok || !isBool {
			t.Errorf("-flags missing bool flag %s: %v", name, defs)
		}
	}
	if isBool, ok := byName["only"]; !ok || isBool {
		t.Errorf("-flags: want string flag only, got %v", defs)
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

// TestStandaloneClean runs the real analyzers over a real package that
// must be clean (the fingerprint builder itself).
func TestStandaloneClean(t *testing.T) {
	out, code := run(t, "../../internal/fprint/")
	if code != 0 {
		t.Fatalf("standalone run exited %d:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("standalone run on internal/fprint not silent:\n%s", out)
	}
}
