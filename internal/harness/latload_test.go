package harness

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/load"
)

// TestLatloadPointSwitchBound runs one quick latload point (PK shed at
// 200% offered load) on a pooled engine slot: its handoffs must cost at
// most two coroutine switches each, and its A→B→A returns (a proc
// resuming the proc that resumed it, one switch) must bring the average
// under 1.75.
func TestLatloadPointSwitchBound(t *testing.T) {
	slot := new(engineSlot)
	defer slot.close()
	o := Options{Quick: true, Seed: 1, slot: slot}
	runMemcachedOpenLoop(kernel.PK(), latloadQuickCores, o, apps.OpenLoopOpts{Shed: defaultShed(), LoadPercent: 200})
	h, s := slot.eng.Handoffs(), slot.eng.Switches()
	t.Logf("%d handoffs, %.3f switches/handoff", h, float64(s)/float64(h))
	if h == 0 || s > 2*h {
		t.Fatalf("%d switches for %d handoffs, want at most two each", s, h)
	}
	if 4*s >= 7*h {
		t.Errorf("%d switches for %d handoffs, want under 1.75 each", s, h)
	}
}

// TestLatloadGoldenShapes pins the overload physics the experiment
// exists to show, on the quick grid:
//
//	(a) with early shedding, goodput plateaus — at 2x the saturation
//	    load it stays within 20% of the peak;
//	(b) without shedding, timeout-driven retransmissions (each re-served
//	    in full by the UDP server) drag goodput well below the peak;
//	(c) the tail diverges before the mean: at the knee p99 is already
//	    several times p50 while goodput is still at its peak.
func TestLatloadGoldenShapes(t *testing.T) {
	s := ByID("latload").Run(Options{Quick: true, Seed: 1})
	if len(s.Failed) != 0 {
		t.Fatalf("latload sweep failed points: %+v", s.Failed)
	}

	peak := func(v string) float64 {
		m := 0.0
		for _, mult := range latloadQuickMults {
			if p, ok := s.Get(v, mult); ok && p.PerCore > m {
				m = p.PerCore
			}
		}
		return m
	}

	shedPeak, fifoPeak := peak("PK shed"), peak("PK fifo")
	if shedPeak <= 0 || fifoPeak <= 0 {
		t.Fatalf("missing peaks: shed %.1f fifo %.1f", shedPeak, fifoPeak)
	}

	// (a) Shedding holds the plateau at 2x overload.
	shed2x, ok := s.Get("PK shed", 200)
	if !ok {
		t.Fatal("no PK shed point at 200%")
	}
	if r := shed2x.PerCore / shedPeak; r < 0.8 {
		t.Errorf("shed goodput at 2x = %.2f of peak, want >= 0.8 (shedding should hold the plateau)", r)
	}

	// (b) The unbounded FIFO does not: the retry storm eats capacity.
	fifo2x, ok := s.Get("PK fifo", 200)
	if !ok {
		t.Fatal("no PK fifo point at 200%")
	}
	if r := fifo2x.PerCore / fifoPeak; r >= 0.8 {
		t.Errorf("fifo goodput at 2x = %.2f of peak; overload should degrade it below 0.8", r)
	}
	if fifo2x.Retries == 0 {
		t.Error("fifo at 2x shows no retransmissions; the collapse mechanism is missing")
	}
	if shed2x.PerCore <= fifo2x.PerCore {
		t.Errorf("shedding (%.1f/core) should beat FIFO (%.1f/core) at 2x overload",
			shed2x.PerCore, fifo2x.PerCore)
	}

	// (c) Tail diverges before the mean: at the knee (100%), fifo goodput
	// is within 10% of its peak while p99 is already > 3x p50.
	knee, ok := s.Get("PK fifo", 100)
	if !ok {
		t.Fatal("no PK fifo point at 100%")
	}
	if r := knee.PerCore / fifoPeak; r < 0.9 {
		t.Errorf("fifo goodput at the knee = %.2f of peak; the knee should still deliver the mean", r)
	}
	if knee.P50Micros <= 0 || knee.P99Micros/knee.P50Micros <= 3 {
		t.Errorf("knee p99/p50 = %.1f (p50 %.1fus p99 %.1fus), want > 3: the tail diverges first",
			knee.P99Micros/knee.P50Micros, knee.P50Micros, knee.P99Micros)
	}

	// Sanity on the new columns: offered load is populated and above
	// goodput under overload; sojourn quantiles are ordered.
	for _, p := range s.Points {
		if p.OfferedPerCore <= 0 {
			t.Fatalf("%s@%d: no offered rate", p.Variant, p.Cores)
		}
		if p.PerCore > p.OfferedPerCore*1.001 {
			t.Errorf("%s@%d: goodput %.1f exceeds offered %.1f", p.Variant, p.Cores, p.PerCore, p.OfferedPerCore)
		}
		if p.P50Micros > p.P99Micros || p.P99Micros > p.P999Micros {
			t.Errorf("%s@%d: quantiles out of order: p50 %.1f p99 %.1f p999 %.1f",
				p.Variant, p.Cores, p.P50Micros, p.P99Micros, p.P999Micros)
		}
	}
}

// TestLatloadDeterministic: the open-loop driver preserves the sweep's
// replay guarantee — same seed, same series, serial or parallel (the
// full-registry reuse/shard suites cover the other two invariants).
func TestLatloadDeterministic(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	a, b := ByID("latload").Run(o), ByID("latload").Run(o)
	if Format(a) != Format(b) {
		t.Error("two latload runs with the same seed differ")
	}
	serial := ByID("latload").Run(Options{Quick: true, Seed: 1, Serial: true})
	if Format(a) != Format(serial) {
		t.Error("parallel and serial latload sweeps differ")
	}
}

// TestLatloadHonorsSpecOptions: caller-supplied arrival, link, and shed
// specs reach the driver (visible in the series title) and change the
// results relative to the defaults.
func TestLatloadHonorsSpecOptions(t *testing.T) {
	arr, err := load.ParseArrival("pareto:alpha=1.2")
	if err != nil {
		t.Fatal(err)
	}
	link, err := load.ParseLink("rtt=200us±100us,loss=2%")
	if err != nil {
		t.Fatal(err)
	}
	shed, err := load.ParseShed("qlen=4")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 1, Arrival: arr, Link: link, Shed: shed}
	s := ByID("latload").Run(o)
	if len(s.Failed) != 0 {
		t.Fatalf("failed points: %+v", s.Failed)
	}
	base := ByID("latload").Run(Options{Quick: true, Seed: 1})
	if Format(s) == Format(base) {
		t.Error("arrival/link/shed options had no effect on the series")
	}
	p, ok := s.Get("PK shed", 200)
	if !ok {
		t.Fatal("no PK shed point at 200%")
	}
	if p.Retries == 0 {
		t.Error("2% link loss produced no retransmissions")
	}
}

// TestCacheKeyIncludesLoadSpecs: every load spec is a cache-key term, in
// canonical form, so differently-written equal specs share entries and
// different specs never alias.
func TestCacheKeyIncludesLoadSpecs(t *testing.T) {
	base := Options{}
	arr, _ := load.ParseArrival("poisson:users=5000")
	link, _ := load.ParseLink("rtt=1ms")
	shed, _ := load.ParseShed("qlen=8")
	for name, o := range map[string]Options{
		"arrival": {Arrival: arr},
		"link":    {Link: link},
		"shed":    {Shed: shed},
	} {
		if o.cacheKey("V", 8) == base.cacheKey("V", 8) {
			t.Errorf("%s spec does not affect the cache key", name)
		}
	}
	// Spelling variants of the same spec share a key.
	l1, _ := load.ParseLink("rtt=20ms±5")
	l2, _ := load.ParseLink("rtt=20ms+-5ms")
	if (Options{Link: l1}).cacheKey("V", 8) != (Options{Link: l2}).cacheKey("V", 8) {
		t.Error("equivalent link specs produce different cache keys")
	}
}

// TestLatloadCachesCleanly: a second run replays entirely from cache,
// and points cached under one shed spec never serve another.
func TestLatloadCachesCleanly(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 1, Cache: c}
	first := ByID("latload").Run(o)
	if misses := c.Misses(); misses != int64(len(first.Points)) {
		t.Errorf("first run missed %d times, want %d", misses, len(first.Points))
	}
	hitsBefore := c.Hits()
	second := ByID("latload").Run(o)
	if got := c.Hits() - hitsBefore; got != int64(len(first.Points)) {
		t.Errorf("second run hit %d times, want %d (all points cached)", got, len(first.Points))
	}
	if Format(first) != Format(second) {
		t.Error("cached latload series differs from the computed one")
	}

	// A different shed spec must recompute, not reuse.
	shed, _ := load.ParseShed("qlen=2")
	missesBefore := c.Misses()
	ByID("latload").Run(Options{Quick: true, Seed: 1, Cache: c, Shed: shed})
	if c.Misses() == missesBefore {
		t.Error("changed shed spec replayed from the old spec's cache entries")
	}
}
