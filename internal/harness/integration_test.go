package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernel"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_outputs.sha256 from this run")

// quickOutputsPath pins a sha256 of every experiment's quick Format and
// CSV output, so a refactor that claims byte-identical figures is checked
// for every registered experiment.
var quickOutputsPath = filepath.Join("testdata", "quick_outputs.sha256")

// readQuickOutputs loads the pinned table: one "id format-sha csv-sha"
// line per experiment.
func readQuickOutputs(t *testing.T) map[string][2]string {
	data, err := os.ReadFile(quickOutputsPath)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string][2]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", quickOutputsPath, line)
		}
		pins[f[0]] = [2]string{f[1], f[2]}
	}
	return pins
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestEveryExperimentRunsQuick executes the complete registry with quick
// options — the whole-paper smoke test. Each series must produce output
// and be internally consistent, and its Format and CSV output must hash
// to the pinned values (go test -run TestEveryExperimentRunsQuick -update
// rewrites them). The hashes are checked on amd64 only: other
// architectures may fuse multiply-adds and change the last bits.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	check := runtime.GOARCH == "amd64" && !*update
	var pins map[string][2]string
	if check {
		pins = readQuickOutputs(t)
	}
	got := map[string][2]string{}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			s := e.Run(quickOpts())
			if s == nil {
				t.Fatal("nil series")
			}
			if s.ID != e.ID {
				t.Errorf("series ID %q != experiment ID %q", s.ID, e.ID)
			}
			if len(s.Points) == 0 && len(s.Notes) == 0 {
				t.Error("experiment produced no points and no notes")
			}
			for _, p := range s.Points {
				if p.PerCore < 0 || p.UserMicros < 0 || p.SysMicros < 0 {
					t.Errorf("negative measurement: %+v", p)
				}
			}
			out := Format(s)
			if !strings.Contains(out, e.ID) {
				t.Errorf("formatted output does not mention the experiment ID:\n%s", out)
			}
			got[e.ID] = [2]string{sha(out), sha(CSV(s))}
			if !check {
				return
			}
			if want, ok := pins[e.ID]; !ok {
				t.Errorf("no pinned output hashes in %s", quickOutputsPath)
			} else if got[e.ID] != want {
				t.Errorf("output hashes (Format, CSV) = %v, pinned %v", got[e.ID], want)
			}
		})
	}
	if *update {
		var b strings.Builder
		for _, e := range Experiments() {
			h, ok := got[e.ID]
			if !ok {
				t.Fatalf("-update needs every experiment; %s did not run", e.ID)
			}
			fmt.Fprintf(&b, "%s %s %s\n", e.ID, h[0], h[1])
		}
		if err := os.WriteFile(quickOutputsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeterministicResults runs one experiment twice with the same seed
// and requires identical output — the whole stack must be reproducible.
func TestDeterministicResults(t *testing.T) {
	a := ByID("fig5").Run(quickOpts())
	b := ByID("fig5").Run(quickOpts())
	if Format(a) != Format(b) {
		t.Error("same-seed fig5 runs differ; simulation is not deterministic")
	}
}

// TestSeedChangesRandomizedExperiments checks the seed is actually wired
// through (Exim hashes spool dirs randomly, so its exact numbers shift).
func TestSeedChangesRandomizedExperiments(t *testing.T) {
	a := ByID("fig4").Run(Options{Quick: true, Seed: 1, Cores: []int{48}})
	b := ByID("fig4").Run(Options{Quick: true, Seed: 2, Cores: []int{48}})
	if Format(a) == Format(b) {
		t.Error("different seeds produced byte-identical Exim results; seed plumbing broken")
	}
}

// TestAblationsDirectionality spot-checks that the headline fixes, applied
// alone, improve their target application at 48 cores.
func TestAblationsDirectionality(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	s := ByID("ablate").Run(quickOpts())
	// Only the fixes whose effect is large and isolated are asserted:
	// several fixes interact (removing one serialization point can worsen
	// convoys on another line — the paper's "fixing one scalability
	// problem usually exposes further ones"), so small single-fix deltas
	// may be negative.
	for _, line := range s.Notes {
		for _, mustImprove := range []string{"lseek-mutex", "superpage-locking", "superpage-zeroing", "vfsmount-ref"} {
			if strings.HasPrefix(line, mustImprove) && strings.Contains(line, ": -") {
				t.Errorf("fix %s alone regressed its target app: %s", mustImprove, line)
			}
		}
	}
	if len(s.Notes) != 16 {
		t.Errorf("ablation produced %d lines, want 16", len(s.Notes))
	}
}

// TestAblationNotesNameTheirApp: each ablate note names the app that
// measured its fix, which must be one of the apps the fix affects. The
// VFS fixes affect Apache first but are measured on Exim.
func TestAblationNotesNameTheirApp(t *testing.T) {
	s := ByID("ablate").Run(quickOpts())
	if len(s.Notes) != len(kernel.Fixes) {
		t.Fatalf("ablation produced %d notes, want %d", len(s.Notes), len(kernel.Fixes))
	}
	for i, f := range kernel.Fixes {
		app := ablationApp(f.Name)
		if !slices.Contains(f.Apps, app) {
			t.Errorf("fix %s is measured on %s, not one of its apps %v", f.Name, app, f.Apps)
		}
		if n := s.Notes[i]; !strings.HasPrefix(n, f.Name) || !strings.HasSuffix(n, "(apps: "+app+")") {
			t.Errorf("note %q does not name %s's measuring app %s", n, f.Name, app)
		}
	}
	for _, vfs := range []string{"dentry-ref", "vfsmount-ref", "dentry-lock", "mount-lock", "open-list"} {
		if app := ablationApp(vfs); app != "Exim" {
			t.Errorf("fix %s is measured on %s, want Exim", vfs, app)
		}
	}
}

// TestMOSBENCHTableResolves: every application a Figure 1 fix lists, and
// every application ablate measures a fix on, names exactly one row of
// mosApps; each row has its own "apps/<key>" cost domain, and ablate
// declares the domain of every row it picks, so retuning a measured app
// invalidates ablate's cached points.
func TestMOSBENCHTableResolves(t *testing.T) {
	rows := func(name string) int {
		n := 0
		for _, a := range mosApps {
			if a.name == name {
				n++
			}
		}
		return n
	}
	ablate := ByID("ablate").Domains
	for _, f := range kernel.Fixes {
		for _, app := range f.Apps {
			if n := rows(app); n != 1 {
				t.Errorf("fix %s lists app %q, which names %d rows of mosApps, want 1", f.Name, app, n)
			}
		}
		app := ablationApp(f.Name)
		if n := rows(app); n != 1 {
			t.Errorf("ablate measures fix %s on %q, which names %d rows of mosApps, want 1", f.Name, app, n)
			continue
		}
		if d := "apps/" + mosAppNamed(app).key; !slices.Contains(ablate, d) {
			t.Errorf("ablate measures fix %s on %s but does not declare its domain %s (declares %v)",
				f.Name, app, d, ablate)
		}
	}
	keys := map[string]bool{}
	for _, a := range mosApps {
		d := "apps/" + a.key
		if _, ok := costDomains[d]; !ok || keys[a.key] {
			t.Errorf("row %s: domain %s is unknown or shared with another row", a.name, d)
		}
		keys[a.key] = true
	}
	if len(keys) != len(appDomains) {
		t.Errorf("mosApps has %d rows, but there are %d application cost domains %v",
			len(keys), len(appDomains), appDomains)
	}
}
