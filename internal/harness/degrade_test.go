package harness

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

func TestDegradeQuickGracefulAndDeterministic(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	s := ByID("degrade").Run(o)
	if len(s.Failed) != 0 {
		t.Fatalf("degrade sweep failed points: %+v", s.Failed)
	}
	base, err := fault.Parse(DefaultDegradeSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Variants() {
		healthy, ok := s.Get(v, 0)
		if !ok || healthy.PerCore <= 0 {
			t.Fatalf("%s has no healthy (severity 0) point", v)
		}
		prev := healthy.PerCore
		for _, sev := range degradeQuickSeverities[1:] {
			p, ok := s.Get(v, sev)
			if !ok {
				t.Fatalf("%s missing severity %d", v, sev)
			}
			if p.PerCore <= 0 {
				t.Fatalf("%s@%d%% collapsed to %g req/s/core", v, sev, p.PerCore)
			}
			// Graceful degradation: retention stays above the
			// capacity+retry-latency floor, and throughput only falls as
			// severity rises.
			scaled := base.Scale(float64(sev) / 100)
			floor := gracefulFloor(scaled, degradeQuickCores, healthy.PerCore)
			if ret := p.PerCore / healthy.PerCore; ret < floor {
				t.Errorf("%s@%d%%: retention %.3f below graceful floor %.3f", v, sev, ret, floor)
			}
			if p.PerCore > prev*1.01 {
				t.Errorf("%s@%d%%: throughput rose with severity (%.1f > %.1f)", v, sev, p.PerCore, prev)
			}
			prev = p.PerCore
			// Retries are bounded and plausible: at most the full retry
			// budget per packet, nonzero when packets are being dropped.
			if p.Retries < 0 || p.Retries > float64(fault.RetryMaxAttempts)*16 {
				t.Errorf("%s@%d%%: %g retries/op out of range", v, sev, p.Retries)
			}
			drop, _ := scaled.NetProbs()
			if drop > 0 && p.Retries == 0 {
				t.Errorf("%s@%d%%: drop %g injected but no retries observed", v, sev, drop)
			}
		}
		if zero, _ := s.Get(v, 0); zero.Retries != 0 {
			t.Errorf("%s healthy point counts %g retries/op, want 0", v, zero.Retries)
		}
	}

	// Same seed, same spec: the series must replay bit-identically.
	again := ByID("degrade").Run(o)
	if Format(s) != Format(again) {
		t.Error("two degrade runs with the same seed differ")
	}
	// A different seed still produces a full, clean series.
	other := ByID("degrade").Run(Options{Quick: true, Seed: 7})
	if len(other.Points) != len(s.Points) {
		t.Errorf("seed 7 run has %d points, seed 1 has %d", len(other.Points), len(s.Points))
	}
}

// TestDegradeTimedFaultGolden runs degrade with fault specs whose steps
// carry @t= activation times, so the kernel's fault-injector proc applies
// them mid-run, and requires the CSV to match the checked-in golden byte
// for byte. The "midrun" spec lists its two steps out of time order and
// both land while the workload runs; in "pastend" both steps fall after
// the workload finishes, so the injector extends the run to its last step.
func TestDegradeTimedFaultGolden(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"midrun", "dram:0@50%@t=100us,drop:0.01@t=20us"},
		{"pastend", "dram:0@50%@t=1ms,link:0-1@50%@t=2ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := fault.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			s := ByID("degrade").Run(Options{Quick: true, Seed: 1, Fault: f})
			if len(s.Failed) != 0 {
				t.Fatalf("failed points: %+v", s.Failed)
			}
			golden := filepath.Join("testdata", "degrade_timed_"+tc.name+".csv")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := CSV(s); got != string(want) {
				t.Errorf("degrade with %q differs from %s:\ngot:\n%s\nwant:\n%s", tc.spec, golden, got, want)
			}
		})
	}
}

func TestDegradeHonorsBaseSpecOption(t *testing.T) {
	spec, err := fault.Parse("drop:0.05")
	if err != nil {
		t.Fatal(err)
	}
	s := ByID("degrade").Run(Options{Quick: true, Seed: 1, Fault: spec})
	if len(s.Failed) != 0 {
		t.Fatalf("failed points: %+v", s.Failed)
	}
	p, ok := s.Get("PK", 100)
	if !ok {
		t.Fatal("no PK point at full severity")
	}
	if p.Retries == 0 {
		t.Error("caller-supplied drop spec produced no retries")
	}
}

func TestCacheKeyIncludesFault(t *testing.T) {
	clean := Options{}
	spec, err := fault.Parse("link:3-4@50%,drop:0.01")
	if err != nil {
		t.Fatal(err)
	}
	faulted := Options{Fault: spec}
	if clean.cacheKey("V", 8) == faulted.cacheKey("V", 8) {
		t.Error("fault spec does not affect the cache key")
	}
	// Equivalent specs written differently share a key (canonical form).
	spec2, err := fault.Parse("drop:0.01,link:4-3@50%")
	if err != nil {
		t.Fatal(err)
	}
	if faulted.cacheKey("V", 8) != (Options{Fault: spec2}).cacheKey("V", 8) {
		t.Error("equivalent fault specs produce different cache keys")
	}
}

func TestDegradeCachesUnderFaultKey(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 1, Cache: c}

	// Prime a clean experiment first, so we can prove the fault sweep
	// leaves its entries untouched.
	ByID("fig4").Run(o)
	cleanMisses := c.Misses()
	if cleanMisses == 0 {
		t.Fatal("clean run stored nothing")
	}

	first := ByID("degrade").Run(o)
	if got := c.Misses() - cleanMisses; got != int64(len(first.Points)) {
		t.Errorf("first degrade run missed %d times, want %d", got, len(first.Points))
	}
	hitsBefore := c.Hits()
	second := ByID("degrade").Run(o)
	if got := c.Hits() - hitsBefore; got != int64(len(first.Points)) {
		t.Errorf("second degrade run hit %d times, want %d (all points cached)", got, len(first.Points))
	}
	if Format(first) != Format(second) {
		t.Error("cached degrade series differs from the computed one")
	}

	// The clean experiment still replays fully from cache: fault-keyed
	// entries never alias or evict clean ones.
	hitsBefore, missesBefore := c.Hits(), c.Misses()
	ByID("fig4").Run(o)
	if c.Misses() != missesBefore {
		t.Errorf("clean rerun missed %d times after fault sweep, want 0", c.Misses()-missesBefore)
	}
	if c.Hits() == hitsBefore {
		t.Error("clean rerun did not hit the cache")
	}
}
