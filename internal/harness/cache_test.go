package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/topo"
)

// cachingExperiments returns the IDs of every registered experiment that
// actually consults the cache (declares cost domains and produced at
// least one lookup in a probe run). Derived, not hard-coded, so new
// experiments are covered automatically.
func cachingExperiments(t *testing.T, seed uint64) []string {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		e.Run(Options{Quick: true, Seed: seed, Cache: c})
	}
	var out []string
	for exp, st := range c.Stats().Experiments {
		if st.Hits+st.Misses > 0 {
			out = append(out, exp)
		}
	}
	if len(out) < 5 {
		t.Fatalf("only %d experiments consult the cache; wiring broken? (%v)", len(out), out)
	}
	return out
}

// TestSectionFingerprintGolden pins the sweep-point cache's keys by
// value: every cost domain's fingerprint, the default machine's mem
// domain, the combined fingerprints of default and "@machine" sections,
// and the cache schema. A refactor of how machines, domains, cost tables
// or sections are fingerprinted must keep these bytes, or every warm
// cache silently re-simulates; a deliberate retune updates the table.
func TestSectionFingerprintGolden(t *testing.T) {
	domains := map[string]string{
		"apps/apache":    "731c04a1c7939f85",
		"apps/exim":      "899698637dcb4d86",
		"apps/gmake":     "8a49368340b7f9b9",
		"apps/memcached": "681c4bfbd54a891d",
		"apps/metis":     "7a1c0ecd51cb4503",
		"apps/pedsort":   "e3c52b297d2f2baf",
		"apps/postgres":  "6b074bc43bcdbca7",
		"fault":          "93c5dd56f5fa281c",
		"kernel":         "10655430d4b72a23",
		"load":           "043aeeca502d32c8",
		"mem":            "292d23844d62b174",
		"scount":         "45f4313e7824a2eb",
		"steering":       "3eef9d641f8dc0f8",
		"topo":           "6a131a7bf44d2ac1",
	}
	for name, got := range costDomains {
		if want, ok := domains[name]; !ok {
			t.Errorf("cost domain %q = %s is not pinned here", name, got)
		} else if got != want {
			t.Errorf("cost domain %q = %s, want %s", name, got, want)
		}
	}
	for name := range domains {
		if _, ok := costDomains[name]; !ok {
			t.Errorf("pinned cost domain %q is not registered", name)
		}
	}
	if got, want := mem.FingerprintFor(topo.Default()), "292d23844d62b174"; got != want {
		t.Errorf("mem.FingerprintFor(default) = %s, want %s", got, want)
	}
	for _, c := range []struct{ section, want string }{
		{"fig4", "151ecb309e38f01b"},
		{"fig4@ring16", "39f1b752bbc2797c"},
		{"latload", "21d576fc178a5993"},
		{"degrade@big192", "3d945dc4eafb69da"},
		{"fig11@mesh4x4", "eb44fe116c6347fe"},
	} {
		if got := fingerprintFor(c.section); got != c.want {
			t.Errorf("fingerprintFor(%q) = %s, want %s", c.section, got, c.want)
		}
	}
	if got, want := cacheSchema, "39b9930df6863dea"; got != want {
		t.Errorf("cacheSchema = %s, want %s", got, want)
	}
}

// TestFingerprintInvalidationIsPerExperiment pins the incremental
// invalidation acceptance criterion: perturb exactly one experiment's
// stored cost-model fingerprint (what a retune of its constants does),
// then re-run the full suite warm — only that experiment re-simulates
// (misses > 0, stale points counted invalidated); every other experiment
// is served entirely from cache with zero misses.
func TestFingerprintInvalidationIsPerExperiment(t *testing.T) {
	const seed = 11
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: seed, Cache: c1}
	series := map[string]*Series{}
	for _, e := range Experiments() {
		series[e.ID] = e.Run(o)
	}
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}

	// Perturb fig5's fingerprint on disk, as if memcached's tuning
	// constants had been retuned since the cache was written.
	const victim = "fig5"
	path := filepath.Join(dir, cacheFileName)
	f, err := readCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Experiments[victim]
	if sec == nil || sec.Fingerprint != fingerprintFor(victim) {
		t.Fatalf("cache file has no current-fingerprint section for %s", victim)
	}
	sec.Fingerprint = "feedfacefeedface"
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := Options{Quick: true, Seed: seed, Cache: c2}
	for _, e := range Experiments() {
		got := e.Run(warm)
		if !reflect.DeepEqual(got, series[e.ID]) {
			t.Errorf("%s: warm series differs from cold series", e.ID)
		}
	}
	stats := c2.Stats()
	v := stats.Experiments[victim]
	if v.Misses == 0 {
		t.Errorf("%s: perturbed fingerprint did not force re-simulation (0 misses)", victim)
	}
	if v.Invalidated == 0 {
		t.Errorf("%s: stale points were not counted as invalidated", victim)
	}
	for exp, st := range stats.Experiments {
		if exp == victim {
			continue
		}
		if st.Misses != 0 {
			t.Errorf("%s: %d misses on a warm run; only %s should re-simulate", exp, st.Misses, victim)
		}
		if st.Invalidated != 0 {
			t.Errorf("%s: %d points invalidated; only %s's fingerprint changed", exp, st.Invalidated, victim)
		}
	}
}

// TestDomainRetuneInvalidatesOnlyDependents models a retune in-process:
// swapping one app domain's fingerprint must make the experiments that
// declare it miss, while an experiment of a different app still hits.
func TestDomainRetuneInvalidatesOnlyDependents(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 9, Cache: c}
	ByID("fig4").Run(o) // exim
	ByID("fig5").Run(o) // memcached

	const domain = "apps/memcached"
	orig, ok := costDomains[domain]
	if !ok {
		t.Fatalf("domain %q not registered", domain)
	}
	costDomains[domain] = "feedfacefeedface"
	defer func() { costDomains[domain] = orig }()

	ByID("fig4").Run(o)
	ByID("fig5").Run(o)
	stats := c.Stats()
	if st := stats.Experiments["fig4"]; st.Misses != st.Hits { // cold misses == warm hits
		t.Errorf("fig4 (exim): %d hits, %d misses; a memcached retune must not invalidate it",
			st.Hits, st.Misses)
	}
	if st := stats.Experiments["fig5"]; st.Hits != 0 || st.Invalidated == 0 {
		t.Errorf("fig5 (memcached): %d hits, %d invalidated; the retune should have dropped its points",
			st.Hits, st.Invalidated)
	}
}

// TestEveryCachingExperimentDeclaresDomains keeps registrations honest:
// an experiment that consults the cache must declare an explicit domain
// list (the all-domains fallback would silently reintroduce wholesale
// invalidation for it). Non-default machines cache under "exp@machine"
// sections; the registration lookup uses the bare experiment ID.
func TestEveryCachingExperimentDeclaresDomains(t *testing.T) {
	for _, id := range cachingExperiments(t, 13) {
		exp, _, _ := strings.Cut(id, "@")
		e := ByID(exp)
		if e == nil {
			t.Errorf("experiment %q cached points but is not registered", id)
			continue
		}
		if len(e.Domains) == 0 {
			t.Errorf("experiment %q consults the cache but declares no cost domains", id)
		}
	}
}

// TestCacheSaveMergesOnDisk pins the cross-process durability fix: two
// cache handles sharing one directory, each saving different points, must
// both survive — last writer merges, not wins.
func TestCacheSaveMergesOnDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintFor("fig4")
	c1.store("fig4", fp, "Stock|1|seed=1|quick=true|placement=local", Point{Cores: 1, Variant: "Stock", PerCore: 10})
	c2.store("fig4", fp, "Stock|48|seed=1|quick=true|placement=local", Point{Cores: 48, Variant: "Stock", PerCore: 5})
	c2.store("fig5", fingerprintFor("fig5"), "PK|8|seed=1|quick=true|placement=local", Point{Cores: 8, Variant: "PK", PerCore: 7})
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}

	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c3.Len(); got != 3 {
		t.Errorf("after two merging saves the cache holds %d points, want 3", got)
	}
	for _, probe := range []struct{ exp, key string }{
		{"fig4", "Stock|1|seed=1|quick=true|placement=local"},
		{"fig4", "Stock|48|seed=1|quick=true|placement=local"},
		{"fig5", "PK|8|seed=1|quick=true|placement=local"},
	} {
		if _, ok := c3.lookup(probe.exp, fingerprintFor(probe.exp), []byte(probe.key)); !ok {
			t.Errorf("point %s/%s lost across concurrent saves", probe.exp, probe.key)
		}
	}
}

// TestCacheSaveMergeDropsStaleSections: when the on-disk section was
// written under an older fingerprint, the in-memory (current) section
// wins the merge and the stale points are purged.
func TestCacheSaveMergeDropsStaleSections(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.store("fig4", "0ldf1ngerpr1nt00", "Stock|1|seed=1|quick=true|placement=local", Point{Cores: 1, PerCore: 99})
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintFor("fig4")
	c2.store("fig4", fp, "Stock|1|seed=1|quick=true|placement=local", Point{Cores: 1, PerCore: 10})
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}

	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := c3.lookup("fig4", fp, []byte("Stock|1|seed=1|quick=true|placement=local"))
	if !ok || p.PerCore != 10 {
		t.Errorf("current-fingerprint point lost in merge: ok=%v p=%+v", ok, p)
	}
	if got := c3.Len(); got != 1 {
		t.Errorf("stale section survived the merge: %d points, want 1", got)
	}
}

// TestCacheSaveMergePrefersCurrentFingerprintOnDisk: a handle holding a
// stale-fingerprint section it never ran (e.g. loaded from a cache file
// written by an older cost model) must not clobber points another
// process just computed under the current fingerprint — the side that
// matches the current cost model wins the merge regardless of which
// handle saves last.
func TestCacheSaveMergePrefersCurrentFingerprintOnDisk(t *testing.T) {
	dir := t.TempDir()
	key := "Stock|1|seed=1|quick=true|placement=local"
	fp := fingerprintFor("fig4")

	stale, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale.store("fig4", "0ldf1ngerpr1nt00", key, Point{Cores: 1, PerCore: 99})

	current, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	current.store("fig4", fp, key, Point{Cores: 1, PerCore: 10})
	if err := current.Save(); err != nil {
		t.Fatal(err)
	}
	// The stale handle saves last; its merge must adopt the disk section.
	if err := stale.Save(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := reopened.lookup("fig4", fp, []byte(key))
	if !ok || p.PerCore != 10 {
		t.Errorf("current-fingerprint point lost to a stale last writer: ok=%v p=%+v", ok, p)
	}
}

// TestOpenCacheWarnsAndRemovesOrphanTmp pins the durability bugfixes: an
// unparsable cache file is reported (not silently discarded), and temp
// files stranded by an interrupted save are removed.
func TestOpenCacheWarnsAndRemovesOrphanTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, cacheFileName+".tmp123")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	c, err := OpenCacheLogged(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("unparsable cache produced %d points, want 0", c.Len())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp file %s not removed", orphan)
	}
	var sawParse, sawOrphan bool
	for _, w := range warnings {
		if strings.Contains(w, "unparsable") {
			sawParse = true
		}
		if strings.Contains(w, "orphan") {
			sawOrphan = true
		}
	}
	if !sawParse || !sawOrphan {
		t.Errorf("warnings missing parse/orphan reports: %q", warnings)
	}

	// A stale-schema file must be reported too.
	if err := os.WriteFile(filepath.Join(dir, cacheFileName),
		[]byte(`{"schema":"deadbeef","experiments":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	warnings = nil
	if _, err := OpenCacheLogged(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "schema") {
		t.Errorf("stale-schema open produced warnings %q, want one schema report", warnings)
	}
}

// TestCacheConcurrentUse hammers lookup/store/Save from parallel workers
// (run under -race in CI, like a parallel sweep sharing one cache) and
// then verifies no stored point was lost.
func TestCacheConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	exps := []string{"fig4", "fig5", "fig9", "scount"}
	const workers = 8
	const opsPerWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				exp := exps[rng.Intn(len(exps))]
				fp := fingerprintFor(exp)
				key := fmt.Sprintf("v%d|%d|seed=1|quick=true|placement=local", w, i)
				if _, ok := c.lookup(exp, fp, []byte(key)); !ok {
					c.store(exp, fp, key, Point{Cores: i, Variant: fmt.Sprintf("v%d", w), PerCore: float64(i)})
				}
				if i%50 == 0 {
					if err := c.Save(); err != nil {
						t.Errorf("worker %d: save: %v", w, err)
					}
				}
				_ = c.Stats()
			}
		}()
	}
	wg.Wait()
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := workers * opsPerWorker
	if got := reopened.Len(); got != want {
		t.Errorf("cache holds %d points after concurrent use, want %d", got, want)
	}
}

func TestWriteStatsJSONCreatesParentDirs(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	// Generate some activity so the snapshot has content.
	c.lookup("exp", "fp", []byte("k"))
	c.store("exp", "fp", "k", Point{Cores: 1})
	c.lookup("exp", "fp", []byte("k"))

	// The stats path's parent does not exist yet; WriteStatsJSON must
	// create it rather than failing like a plain os.WriteFile would.
	path := filepath.Join(dir, "artifacts", "nested", "stats.json")
	if err := c.WriteStatsJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got CacheStats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("stats file is not valid JSON: %v\n%s", err, data)
	}
	if got.Hits != 1 || got.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 miss", got)
	}
	if e := got.Experiments["exp"]; e.Points != 1 {
		t.Errorf("experiment section = %+v, want 1 point", e)
	}
	// No temp files left behind: the write renamed into place.
	if orphans, _ := filepath.Glob(path + ".tmp*"); len(orphans) != 0 {
		t.Errorf("orphan temp files left: %v", orphans)
	}
}

// TestExperimentBodyDomainsRekeyOnlyTheirSection pins the experiment-body
// constants of steering and scount into their own section fingerprints:
// retuning one (modeled by swapping its costDomains entry) re-keys that
// section and no other.
func TestExperimentBodyDomainsRekeyOnlyTheirSection(t *testing.T) {
	for _, id := range []string{"steering", "scount"} {
		t.Run(id, func(t *testing.T) {
			orig, ok := costDomains[id]
			if !ok {
				t.Fatalf("domain %q not registered; its body constants would not key its cache section", id)
			}
			before := map[string]string{}
			for _, e := range Experiments() {
				before[e.ID] = fingerprintFor(e.ID)
			}
			costDomains[id] = "feedfacefeedface"
			defer func() { costDomains[id] = orig }()
			for _, e := range Experiments() {
				if len(e.Domains) == 0 {
					continue // the all-domains fallback re-keys on any retune
				}
				changed := fingerprintFor(e.ID) != before[e.ID]
				if changed != (e.ID == id) {
					t.Errorf("retuning %s's body constants: %s section re-keyed = %v", id, e.ID, changed)
				}
			}
		})
	}
}
