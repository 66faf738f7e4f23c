package harness

import (
	"reflect"
	"testing"

	"repro/internal/topo"
)

// TestSweepDeterminism is the regression guard for the parallel sweep and
// the engine's fast-path scheduling: the same experiment with the same
// seed must produce bit-identical Series, run twice in serial mode, twice
// in parallel mode, and across the two modes.
func TestSweepDeterminism(t *testing.T) {
	for _, id := range []string{"scount", "fig5", "dram", "ht", "latload"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			serial := Options{Quick: true, Seed: 7, Serial: true}
			parallel := Options{Quick: true, Seed: 7}

			s1, s2 := e.Run(serial), e.Run(serial)
			p1, p2 := e.Run(parallel), e.Run(parallel)
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("%s: two serial runs with the same seed differ", id)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Errorf("%s: two parallel runs with the same seed differ", id)
			}
			if !reflect.DeepEqual(s1, p1) {
				t.Errorf("%s: serial and parallel sweeps differ:\nserial:   %+v\nparallel: %+v", id, s1, p1)
			}
			if len(s1.Points) == 0 {
				t.Errorf("%s: sweep produced no points", id)
			}
		})
	}
}

// ring16OrSkip returns the 16-chip ring profile, the non-default machine
// the determinism and golden suites re-run against.
func ring16OrSkip(t *testing.T) *topo.Machine {
	t.Helper()
	m, ok := topo.Lookup("ring16")
	if !ok {
		t.Fatal("ring16 profile not registered")
	}
	return m
}

// TestSweepDeterminismNonDefaultMachine re-pins the sweep determinism
// guarantee on a non-default host: grids, routing, and memory geometry all
// come from the machine description, and none of it may depend on
// execution order.
func TestSweepDeterminismNonDefaultMachine(t *testing.T) {
	m := ring16OrSkip(t)
	for _, id := range []string{"fig5", "scount"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			serial := Options{Quick: true, Seed: 7, Serial: true, Machine: m}
			parallel := Options{Quick: true, Seed: 7, Machine: m}
			s1, s2 := e.Run(serial), e.Run(serial)
			p1 := e.Run(parallel)
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("%s on ring16: two serial runs with the same seed differ", id)
			}
			if !reflect.DeepEqual(s1, p1) {
				t.Errorf("%s on ring16: serial and parallel sweeps differ", id)
			}
			if len(s1.Points) == 0 {
				t.Errorf("%s on ring16: sweep produced no points", id)
			}
			for _, p := range s1.Points {
				if p.Cores > m.MaxCores() {
					t.Errorf("%s on ring16: point at %d cores exceeds the machine's %d", id, p.Cores, m.MaxCores())
				}
			}
		})
	}
}

// TestGoldenShapesNonDefaultMachine pins the paper's qualitative shapes
// on the 16-chip ring: the stock Exim curve still collapses somewhere in
// the bigger machine's grid while the PK curve sustains, and PK beats
// stock at the full machine.
func TestGoldenShapesNonDefaultMachine(t *testing.T) {
	m := ring16OrSkip(t)
	s := ByID("fig4").Run(Options{Quick: true, Seed: 1, Machine: m})
	if len(s.Failed) != 0 {
		t.Fatalf("fig4 on ring16 failed points: %+v", s.Failed)
	}
	max := m.MaxCores()
	stock, ok1 := s.Get("Stock", max)
	pk, ok2 := s.Get("PK", max)
	if !ok1 || !ok2 {
		t.Fatalf("fig4 on ring16 missing full-machine points (have %+v)", s.Points)
	}
	if stock.PerCore >= pk.PerCore {
		t.Errorf("at %d cores stock per-core %.1f >= PK %.1f; the fix should win", max, stock.PerCore, pk.PerCore)
	}
	if _, collapsed := seriesCollapseOnset(s, "Stock"); !collapsed {
		t.Error("stock Exim never collapses on ring16; the paper's bottleneck should survive the bigger ring")
	}
	if c, collapsed := seriesCollapseOnset(s, "PK"); collapsed {
		t.Errorf("PK Exim collapses at %d cores on ring16; it should sustain through the full machine", c)
	}
}
