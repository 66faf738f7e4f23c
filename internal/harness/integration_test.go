package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/kernel"
)

// TestEveryExperimentRunsQuick executes the complete registry with quick
// options — the whole-paper smoke test. Each series must produce output
// and be internally consistent.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
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
		})
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
