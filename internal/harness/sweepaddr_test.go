package harness

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// keyGoldenOptions returns the option sets whose keys are pinned below:
// the default, one that sets every keyed option, and a non-default
// machine.
func keyGoldenOptions(t testing.TB) map[string]Options {
	t.Helper()
	spec, err := fault.Parse("link:3-4@50%,drop:0.01")
	if err != nil {
		t.Fatal(err)
	}
	arr, err := load.ParseArrival("pareto:alpha=1.2")
	if err != nil {
		t.Fatal(err)
	}
	link, err := load.ParseLink("rtt=200us±100,loss=0.5%")
	if err != nil {
		t.Fatal(err)
	}
	shed, err := load.ParseShed("qlen=16")
	if err != nil {
		t.Fatal(err)
	}
	ring, ok := topo.Lookup("ring16")
	if !ok {
		t.Fatal("no ring16 machine profile")
	}
	return map[string]Options{
		"default": {},
		"full": {Seed: 7, Quick: true, Placement: mem.PlacementHome(3), Fault: spec,
			Arrival: arr, Link: link, Shed: shed},
		"ring16": {Machine: ring, Quick: true},
	}
}

// TestCacheKeyGolden pins the exact key strings and section IDs, so a
// cache primed by an earlier build stays warm: any change here re-keys
// every stored point. Both the string builder (cacheKey) and the sweep's
// byte builder (sweepAddr.appendKey) must produce them.
func TestCacheKeyGolden(t *testing.T) {
	type key struct {
		variant string
		cores   int
		want    string
	}
	golden := map[string]struct {
		sec  string
		keys []key
	}{
		"default": {"fig4", []key{
			{"Stock", 1, "Stock|1|seed=1|quick=false|placement=local|fault=none|arrival=none|link=none|shed=fifo"},
			{"PK + striped", 48, "PK + striped|48|seed=1|quick=false|placement=local|fault=none|arrival=none|link=none|shed=fifo"},
		}},
		"full": {"fig4", []key{
			{"Stock", 1, "Stock|1|seed=7|quick=true|placement=home:3|fault=link:3-4@50%,drop:0.01|arrival=pareto:alpha=1.2,users=1000000|link=rtt=200us±100us,loss=0.5%|shed=qlen=16"},
			{"PK + striped", 48, "PK + striped|48|seed=7|quick=true|placement=home:3|fault=link:3-4@50%,drop:0.01|arrival=pareto:alpha=1.2,users=1000000|link=rtt=200us±100us,loss=0.5%|shed=qlen=16"},
		}},
		"ring16": {"fig4@ring16", []key{
			{"Stock", 1, "Stock|1|seed=1|quick=true|placement=local|fault=none|arrival=none|link=none|shed=fifo"},
			{"PK + striped", 48, "PK + striped|48|seed=1|quick=true|placement=local|fault=none|arrival=none|link=none|shed=fifo"},
		}},
	}
	opts := keyGoldenOptions(t)
	for name, o := range opts {
		g := golden[name]
		if got := o.cacheSectionID("fig4"); got != g.sec {
			t.Errorf("%s: section %q, want %q", name, got, g.sec)
		}
		a := o.sweepAddr("fig4")
		if a.exp != "fig4" || a.sec != g.sec || a.fp != "" {
			t.Errorf("%s: sweepAddr = %+v, want exp fig4, section %q, no fingerprint without a cache", name, a, g.sec)
		}
		for _, k := range g.keys {
			if got := o.cacheKey(k.variant, k.cores); got != k.want {
				t.Errorf("%s: cacheKey(%q, %d) =\n  %q\nwant\n  %q", name, k.variant, k.cores, got, k.want)
			}
			if got := string(a.appendKey(nil, k.variant, k.cores)); got != k.want {
				t.Errorf("%s: appendKey(%q, %d) =\n  %q\nwant\n  %q", name, k.variant, k.cores, got, k.want)
			}
		}
	}
	// With a cache attached the address carries the section's fingerprint.
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ring := opts["ring16"]
	ring.Cache = c
	if a := ring.sweepAddr("fig4"); a.fp == "" || a.fp != fingerprintFor("fig4@ring16") {
		t.Errorf("sweepAddr fingerprint %q, want fingerprintFor(fig4@ring16) = %q", a.fp, fingerprintFor("fig4@ring16"))
	}
}

// TestWarmHitAllocatesNothing pins the sweep worker's hit path: building
// the key, looking it up, and counting the hit allocate no objects.
func TestWarmHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range keyGoldenOptions(t) {
		o.Cache = c
		a := o.sweepAddr("fig4")
		want := Point{Cores: 48, Variant: "PK + striped", PerCore: 1, DRAMUtil: []float64{0.5}}
		c.store(a.sec, a.fp, o.cacheKey("PK + striped", 48), want)
		run := func(int, Options) Point {
			t.Fatalf("%s: warm point was simulated", name)
			return Point{}
		}
		hits := c.Hits()
		var slot *engineSlot
		allocs := testing.AllocsPerRun(100, func() {
			if p, err := o.safeCachedPoint(a, &slot, "PK + striped", 48, run); err != nil || p.Cores != 48 {
				t.Fatalf("%s: warm hit returned %+v, %v", name, p, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm hit allocates %.1f objects, want 0", name, allocs)
		}
		if c.Hits() == hits {
			t.Errorf("%s: no hits counted", name)
		}
	}
	if c.Misses() != 0 {
		t.Errorf("%d misses, want 0", c.Misses())
	}
}
