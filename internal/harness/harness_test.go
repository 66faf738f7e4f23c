package harness

import (
	"slices"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	// The expected `mosbench -list`: every experiment below is
	// registered, and no other is.
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "tbl-hw", "dma", "nic-env", "ablate",
		"profile", "sloppy-threshold", "spool-dirs", "lockmgr", "steering",
		"scalable-locks", "scount", "dram", "ht", "degrade", "machines",
		"latload",
	}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if ByID("fig99") != nil {
		t.Error("ByID(fig99) should be nil")
	}
}

func TestFig1ListsSixteenFixes(t *testing.T) {
	s := ByID("fig1").Run(quickOpts())
	fixLines := 0
	for _, n := range s.Notes {
		if strings.Contains(n, "problem:") {
			fixLines++
		}
	}
	if fixLines != 16 {
		t.Errorf("fig1 lists %d fixes, want 16", fixLines)
	}
}

func TestFig2TraceShowsLocalReuse(t *testing.T) {
	s := ByID("fig2").Run(quickOpts())
	joined := strings.Join(s.Notes, "\n")
	if !strings.Contains(joined, "invariant holds") {
		t.Errorf("fig2 trace did not verify the invariant:\n%s", joined)
	}
	if !strings.Contains(joined, "spare reused") {
		t.Errorf("fig2 trace did not show local reuse:\n%s", joined)
	}
}

func TestFig4QuickShape(t *testing.T) {
	s := ByID("fig4").Run(quickOpts())
	stock48, ok1 := s.Get("Stock", 48)
	stock1, ok2 := s.Get("Stock", 1)
	pk48, ok3 := s.Get("PK", 48)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("fig4 missing points: %+v", s.Points)
	}
	if stock48.PerCore > 0.5*stock1.PerCore {
		t.Errorf("quick fig4: stock did not collapse (%v vs %v)", stock48.PerCore, stock1.PerCore)
	}
	if pk48.PerCore < 2*stock48.PerCore {
		t.Errorf("quick fig4: PK (%v) should beat stock (%v) at 48", pk48.PerCore, stock48.PerCore)
	}
}

func TestTblHWMatchesPaperLatencies(t *testing.T) {
	s := ByID("tbl-hw").Run(quickOpts())
	joined := strings.Join(s.Notes, "\n")
	for _, want := range []string{
		"L1 hit                       measured    3",
		"L2 hit (model constant)      measured   14",
		"shared L3 hit (same chip)    measured   28",
		"local DRAM                   measured  122",
		"farthest DRAM                measured  503",
		"remote dirty line fetch      measured  217",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("tbl-hw missing %q in:\n%s", want, joined)
		}
	}
}

func TestDMAAblationImproves(t *testing.T) {
	s := ByID("dma").Run(quickOpts())
	node0, ok1 := s.Get("node-0 pool", 48)
	local, ok2 := s.Get("local pools", 48)
	if !ok1 || !ok2 {
		t.Fatalf("dma ablation missing points: %+v", s.Points)
	}
	if local.PerCore < 1.1*node0.PerCore {
		t.Errorf("local DMA pools (%v) should beat node-0 (%v); paper reports ~30%%",
			local.PerCore, node0.PerCore)
	}
}

func TestFormatRendersTableAndNotes(t *testing.T) {
	s := &Series{
		ID:    "x",
		Title: "t",
		Unit:  "u",
		Points: []Point{
			{Cores: 1, Variant: "A", PerCore: 10, UserMicros: 1, SysMicros: 2},
			{Cores: 48, Variant: "A", PerCore: 5, UserMicros: 1, SysMicros: 9},
		},
		Notes: []string{"note-line"},
	}
	out := Format(s)
	for _, want := range []string{"# x", "cores", "A (u", "note-line", "48"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	s := &Series{ID: "x", Points: []Point{{Cores: 4, Variant: "A", PerCore: 1.5}}}
	out := CSV(s)
	if !strings.Contains(out, "x,A,4,1.5,0,0") {
		t.Errorf("CSV output unexpected:\n%s", out)
	}
}

func TestSeriesVariantsOrder(t *testing.T) {
	s := &Series{Points: []Point{
		{Variant: "B", Cores: 1}, {Variant: "A", Cores: 1}, {Variant: "B", Cores: 2},
	}}
	v := s.Variants()
	if len(v) != 2 || v[0] != "B" || v[1] != "A" {
		t.Errorf("Variants() = %v, want [B A] in first-seen order", v)
	}
}

// TestDefaultSweepsAreTheMachineRule: the default machine's sweeps are
// the general per-machine rule at 48 cores, so Options.cores needs no
// special case for it.
func TestDefaultSweepsAreTheMachineRule(t *testing.T) {
	if got := defaultCoresFor(48); !slices.Equal(got, DefaultCores) {
		t.Errorf("defaultCoresFor(48) = %v, want DefaultCores %v", got, DefaultCores)
	}
	if got := quickCoresFor(48); !slices.Equal(got, QuickCores) {
		t.Errorf("quickCoresFor(48) = %v, want QuickCores %v", got, QuickCores)
	}
}
