package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEngineReuseDeterminism is engine reuse's acceptance guarantee: for
// every registered experiment, a sweep on the workers' reused engines is
// bit-for-bit identical — Series deep-equal — to the same sweep on fresh
// engines. A pooled point that panicked would show as a Failed entry the
// fresh sweep lacks. Run under -race in CI, this also proves the
// parked-goroutine handoff is race-clean.
func TestEngineReuseDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			reused := e.Run(Options{Quick: true, Seed: 7})
			fresh := e.Run(Options{Quick: true, Seed: 7, fresh: true})
			if !reflect.DeepEqual(reused, fresh) {
				t.Errorf("%s: reused-engine sweep differs from fresh-engine sweep:\nreused: %+v\nfresh:  %+v",
					e.ID, reused, fresh)
			}
		})
	}
}

// TestCacheWarmSweepIsAllHits pins the cache acceptance criterion: the
// first run of a grid misses every point; a second identical run is
// served entirely from the cache (zero simulation), and the resulting
// Series is identical. The fixed-core extension sweeps are covered too:
// their points go through the same fanOut as fig4's.
func TestCacheWarmSweepIsAllHits(t *testing.T) {
	for _, id := range []string{"fig4", "scalable-locks", "spool-dirs", "lockmgr", "steering"} {
		t.Run(id, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Quick: true, Seed: 3, Cache: c}

			cold := ByID(id).Run(o)
			points := int64(len(cold.Points))
			if points == 0 || c.Hits() != 0 || c.Misses() != points {
				t.Fatalf("cold run: %d hits, %d misses; want 0 hits, %d (> 0) misses", c.Hits(), c.Misses(), points)
			}

			warm := ByID(id).Run(o)
			if c.Hits() != points || c.Misses() != points {
				t.Errorf("warm run: %d hits, %d misses; want %d hits (all points), misses unchanged at %d",
					c.Hits(), c.Misses(), points, points)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("cached series differs from computed series:\ncold: %+v\nwarm: %+v", cold, warm)
			}
		})
	}
}

// TestCachePersistsAcrossOpens checks the disk round-trip: Save, reopen,
// and the whole grid is served from disk with identical results.
func TestCachePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := ByID("scount").Run(Options{Quick: true, Seed: 5, Cache: c1})
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c1.Len() {
		t.Fatalf("reloaded cache has %d points, want %d", c2.Len(), c1.Len())
	}
	warm := ByID("scount").Run(Options{Quick: true, Seed: 5, Cache: c2})
	if c2.Misses() != 0 {
		t.Errorf("reloaded cache missed %d lookups, want 0", c2.Misses())
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("disk round-trip changed results:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestCacheKeySensitivity: changing seed, quick, placement, cores, or
// experiment must miss; only the exact tuple hits.
func TestCacheKeySensitivity(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Quick: true, Seed: 3, Cache: c}
	ByID("scount").Run(base)
	misses := c.Misses()

	other := base
	other.Seed = 4
	ByID("scount").Run(other)
	if c.Misses() <= misses {
		t.Error("different seed was served from the cache")
	}
	if c.Hits() != 0 {
		t.Errorf("no lookup should have hit yet, got %d hits", c.Hits())
	}

	ByID("scount").Run(base)
	if got := c.Hits(); got == 0 {
		t.Error("identical rerun did not hit the cache")
	}
}

// TestCacheSchemaInvalidation: a cache file written under a different
// schema hash must be ignored on open (self-invalidation).
func TestCacheSchemaInvalidation(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ByID("scount").Run(Options{Quick: true, Seed: 3, Cache: c1})
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the schema stamp as a Point-struct refactor would change it.
	path := filepath.Join(dir, cacheFileName)
	stale := `{"schema":"deadbeef","points":{"bogus":{"Cores":1,"Variant":"x","PerCore":1}}}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 0 {
		t.Errorf("stale-schema cache loaded %d points, want 0", c2.Len())
	}
}

// TestFig11HasStripedPlacementVariant pins the registered placement
// variant: fig11 must carry the striped PK curve next to the local one,
// and striping the reduce stream must not beat local placement at 48
// cores (it pushes 7/8 of the bytes across finite HT links).
func TestFig11HasStripedPlacementVariant(t *testing.T) {
	s := ByID("fig11").Run(Options{Quick: true, Seed: 1, Cores: []int{48}})
	local, ok1 := s.Get("PK + 2MB pages", 48)
	striped, ok2 := s.Get("PK + 2MB striped", 48)
	if !ok1 || !ok2 {
		t.Fatalf("fig11 missing placement variants: %+v", s.Points)
	}
	if striped.PerCore > local.PerCore {
		t.Errorf("striped placement (%.1f) beats local (%.1f) at 48 cores; links should cost it",
			striped.PerCore, local.PerCore)
	}
	// The variant must actually change where the bytes flow: striped
	// traffic occupies HT links, local leaves them idle by comparison.
	maxLink := func(p Point) float64 {
		m := 0.0
		for _, u := range p.LinkUtil {
			if u > m {
				m = u
			}
		}
		return m
	}
	if maxLink(striped) <= maxLink(local) {
		t.Errorf("striped variant link load (%.3f) not above local (%.3f)",
			maxLink(striped), maxLink(local))
	}
}

// maxLinkUtil is the busiest HyperTransport link's utilization in a point.
func maxLinkUtil(p Point) float64 {
	m := 0.0
	for _, u := range p.LinkUtil {
		if u > m {
			m = u
		}
	}
	return m
}

func TestFig9HasStripedPlacementVariant(t *testing.T) {
	s := ByID("fig9").Run(Options{Quick: true, Seed: 1, Cores: []int{48}})
	local, ok1 := s.Get("PK", 48)
	striped, ok2 := s.Get("PK + striped", 48)
	if !ok1 || !ok2 {
		t.Fatalf("fig9 missing placement variants: %+v", s.Points)
	}
	// Striping gmake's object stream must actually move bytes onto the
	// interconnect; whether it helps or hurts is the figure's business.
	if maxLinkUtil(striped) <= maxLinkUtil(local) {
		t.Errorf("fig9 striped variant link load (%.3f) not above local PK (%.3f)",
			maxLinkUtil(striped), maxLinkUtil(local))
	}
}

func TestFig10HasStripedPlacementVariant(t *testing.T) {
	s := ByID("fig10").Run(Options{Quick: true, Seed: 1, Cores: []int{48}})
	local, ok1 := s.Get("Stock + Procs RR", 48)
	striped, ok2 := s.Get("Procs RR + striped", 48)
	if !ok1 || !ok2 {
		t.Fatalf("fig10 missing placement variants: %+v", s.Points)
	}
	if maxLinkUtil(striped) <= maxLinkUtil(local) {
		t.Errorf("fig10 striped variant link load (%.3f) not above local RR (%.3f)",
			maxLinkUtil(striped), maxLinkUtil(local))
	}
}
