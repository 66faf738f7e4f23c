package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
)

// cacheVersion is bumped whenever the meaning of cached values changes in
// a way neither the Point schema nor the cost-model fingerprints capture
// (e.g. a change to the key format itself).
const cacheVersion = 2

// cacheSchema fingerprints the cache's shape: the version, the section and
// key formats, and every Point field name and type. It is the outer guard:
// a cache file written under a different schema self-invalidates wholesale
// on load, so refactors of Point can never resurface stale entries.
// Cost-model retunes are NOT part of the schema — they invalidate per
// experiment through the fingerprint stored in each section.
var cacheSchema = func() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|sections=experiment:fingerprint|key=variant|cores|seed|quick|placement|fault|arrival|link|shed|", cacheVersion)
	t := reflect.TypeOf(Point{})
	for i := 0; i < t.NumField(); i++ {
		fmt.Fprintf(h, "%s %s|", t.Field(i).Name, t.Field(i).Type)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}()

// cacheFileName is the single JSON file a cache directory holds.
const cacheFileName = "points.json"

// cacheSection holds one experiment's points, stamped with the combined
// cost-model fingerprint they were computed under (see fingerprintFor).
// A section whose fingerprint no longer matches the running binary's is
// dropped — and only that section: every other experiment's points stay.
type cacheSection struct {
	Fingerprint string           `json:"fingerprint"`
	Points      map[string]Point `json:"points"`
}

// cacheFile is the on-disk representation.
type cacheFile struct {
	Schema      string                   `json:"schema"`
	Experiments map[string]*cacheSection `json:"experiments"`
}

// expCounters tracks one experiment's lookup outcomes.
type expCounters struct {
	hits, misses, invalidated int64
}

// Cache is a content-addressed store of sweep points, one section per
// experiment, each section keyed by (variant, cores, seed, quick,
// placement, fault, arrival, link, shed) and stamped with the
// experiment's cost-model fingerprint. A warm cache lets a repeated
// full-grid run skip simulation entirely; retuning one cost domain
// invalidates only the experiments that declare it. The cache is safe for the concurrent sweep workers; Save merges
// with the current on-disk contents and writes atomically, so concurrent
// processes sharing a directory do not drop each other's points.
type Cache struct {
	path string
	logf func(format string, args ...any)

	mu       sync.Mutex
	sections map[string]*cacheSection
	stats    map[string]*expCounters
	hits     int64
	misses   int64
	dirty    bool
}

// OpenCache opens (creating if needed) the point cache in dir, silently.
// Use OpenCacheLogged to hear about ignored stale/corrupt files.
func OpenCache(dir string) (*Cache, error) { return OpenCacheLogged(dir, nil) }

// OpenCacheLogged opens (creating if needed) the point cache in dir. A
// cache file that does not parse or was written under a different schema
// version is ignored (the cache starts empty), and orphan temp files left
// by an interrupted Save are removed; each such event is reported as one
// line through logf (ignored when nil).
func OpenCacheLogged(dir string, logf func(format string, args ...any)) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache dir: %w", err)
	}
	c := &Cache{
		path:     filepath.Join(dir, cacheFileName),
		logf:     logf,
		sections: map[string]*cacheSection{},
		stats:    map[string]*expCounters{},
	}
	// A crash (or full disk) between Save's temp-file write and rename
	// strands a points.json.tmp* next to the cache; it will never be
	// renamed, so clean it up rather than letting orphans accumulate.
	if orphans, _ := filepath.Glob(c.path + ".tmp*"); len(orphans) > 0 {
		for _, orphan := range orphans {
			os.Remove(orphan)
		}
		c.warnf("harness: cache: removed %d orphan temp file(s) left by an interrupted save in %s", len(orphans), dir)
	}
	f, err := readCacheFile(c.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory.
	case err != nil:
		c.warnf("harness: cache: ignoring %s (%v); starting empty", c.path, err)
	case f.Schema != cacheSchema:
		c.warnf("harness: cache: ignoring %s written under schema %s (current %s); starting empty",
			c.path, f.Schema, cacheSchema)
	default:
		for exp, s := range f.Experiments {
			if s == nil {
				continue
			}
			if s.Points == nil {
				s.Points = map[string]Point{}
			}
			c.sections[exp] = s
		}
	}
	return c, nil
}

// readCacheFile reads and parses the cache file at path (see
// decodeCacheFile). The caller compares the returned Schema against
// cacheSchema.
func readCacheFile(path string) (*cacheFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := decodeCacheFile(data)
	if err != nil {
		return nil, fmt.Errorf("unparsable cache file: %w", err)
	}
	return f, nil
}

// warnf reports a one-line condition through the optional logger.
func (c *Cache) warnf(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Save writes the cache back to its directory. The current on-disk
// contents are merged in first — section by section, points from both
// sides kept wherever the fingerprints agree, the current fingerprint's
// side winning where they do not — so two processes sharing a cache
// directory never silently drop each other's points. The write itself is
// atomic (unique temp file + rename). Saving an unchanged cache is a
// no-op.
func (c *Cache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil
	}
	// Serialize the read-merge-rename against other processes sharing the
	// directory; without this, a save racing between another writer's read
	// and rename could still drop its points. Best-effort: if locking is
	// unavailable the merge still runs, it just keeps the narrow race.
	if release, err := lockFile(c.path + ".lock"); err == nil {
		defer release()
	} else {
		c.warnf("harness: cache: saving without cross-process lock (%v)", err)
	}
	if f, err := readCacheFile(c.path); err == nil && f.Schema == cacheSchema {
		for exp, theirs := range f.Experiments {
			if theirs == nil || len(theirs.Points) == 0 {
				continue
			}
			ours, ok := c.sections[exp]
			if !ok {
				// An experiment only another process ran: keep it.
				c.sections[exp] = theirs
				continue
			}
			if ours.Fingerprint != theirs.Fingerprint {
				// Disagreeing fingerprints: the side computed under the
				// current cost model wins. In particular a section this
				// process only loaded (never ran) must not clobber points
				// another process just computed under the current
				// fingerprint.
				if cur := fingerprintFor(exp); theirs.Fingerprint == cur && ours.Fingerprint != cur {
					c.sections[exp] = theirs
				}
				continue
			}
			for k, v := range theirs.Points {
				if _, exists := ours.Points[k]; !exists {
					ours.Points[k] = v
				}
			}
		}
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		c.warnf("harness: cache: overwriting %s rather than merging (%v)", c.path, err)
	}
	data, err := json.MarshalIndent(cacheFile{Schema: cacheSchema, Experiments: c.sections}, "", " ")
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	// OpenCache sweeps up any temp file an interrupted save leaves.
	if err := writeFileAtomic(c.path, data); err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	c.dirty = false
	return nil
}

// writeFileAtomic writes data to path through a temp file in the same
// directory and a rename, so a reader never sees a truncated file. The
// temp name is unique per writer, so concurrent writers never clobber
// each other's in-flight files; on error it is removed.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		os.Chmod(tmp.Name(), 0o644)
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Hits returns how many lookups were served from the cache.
func (c *Cache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns how many lookups fell through to simulation.
func (c *Cache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of cached points across all experiments.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.sections {
		n += len(s.Points)
	}
	return n
}

// ExperimentCacheStats is one experiment's cache activity.
type ExperimentCacheStats struct {
	// Hits and Misses count this cache's lookups for the experiment.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidated counts stored points dropped because the experiment's
	// cost-model fingerprint changed since they were computed.
	Invalidated int64 `json:"invalidated"`
	// Points is the number of points currently cached.
	Points int `json:"points"`
}

// CacheStats reports per-experiment hit/miss/invalidation counts plus the
// totals.
type CacheStats struct {
	Hits        int64                           `json:"hits"`
	Misses      int64                           `json:"misses"`
	Invalidated int64                           `json:"invalidated"`
	Experiments map[string]ExperimentCacheStats `json:"experiments"`
}

// WriteStatsJSON writes the cache's activity snapshot as indented JSON to
// path, creating missing parent directories. Like Save it writes through
// writeFileAtomic, so an interrupted write never leaves a truncated stats
// file behind.
func (c *Cache) WriteStatsJSON(path string) error {
	data, err := json.MarshalIndent(c.Stats(), "", " ")
	if err != nil {
		return fmt.Errorf("harness: cache stats encode: %w", err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("harness: cache stats dir: %w", err)
	}
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("harness: cache stats write: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the cache's activity since it was opened.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CacheStats{Hits: c.hits, Misses: c.misses, Experiments: map[string]ExperimentCacheStats{}}
	for exp, s := range c.sections {
		e := out.Experiments[exp]
		e.Points = len(s.Points)
		out.Experiments[exp] = e
	}
	for exp, st := range c.stats {
		e := out.Experiments[exp]
		e.Hits, e.Misses, e.Invalidated = st.hits, st.misses, st.invalidated
		out.Experiments[exp] = e
		out.Invalidated += st.invalidated
	}
	return out
}

// expStats returns exp's counters, creating them on first use. Caller
// holds c.mu.
func (c *Cache) expStats(exp string) *expCounters {
	st := c.stats[exp]
	if st == nil {
		st = &expCounters{}
		c.stats[exp] = st
	}
	return st
}

// section returns exp's section primed for fingerprint fp: a missing
// section is created empty, and a section computed under a different
// fingerprint has its points dropped (counted as invalidated) — the
// per-experiment replacement for the old wholesale cache version bump.
// Caller holds c.mu.
func (c *Cache) section(exp, fp string) *cacheSection {
	s := c.sections[exp]
	if s == nil {
		s = &cacheSection{Fingerprint: fp, Points: map[string]Point{}}
		c.sections[exp] = s
		return s
	}
	if s.Fingerprint != fp {
		if n := len(s.Points); n > 0 {
			c.expStats(exp).invalidated += int64(n)
			c.dirty = true // purge the stale points from disk on Save
		}
		s.Fingerprint = fp
		s.Points = map[string]Point{}
	}
	return s
}

// lookup serves the point stored under key in exp's section. The key
// arrives as bytes and is converted only inside the map index, which Go
// compiles without allocating, so a hit costs no garbage.
func (c *Cache) lookup(exp, fp string, key []byte) (Point, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.section(exp, fp).Points[string(key)]
	st := c.expStats(exp)
	if ok {
		c.hits++
		st.hits++
	} else {
		c.misses++
		st.misses++
	}
	return p, ok
}

func (c *Cache) store(exp, fp, key string, p Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.section(exp, fp).Points[key] = p
	c.dirty = true
}

// cacheKey addresses one measurement within an experiment's section.
// Everything a point's value depends on must appear either here (variant,
// cores, and the run options that change simulated behavior) or in the
// section's cost-model fingerprint (the experiment's tuning constants).
// It is the key's reference form, and cachekeylint's root: the sweeps
// build the options part once per fan-out (see sweepAddr) and append each
// point's variant and cores to it, producing the same bytes.
func (o Options) cacheKey(variant string, cores int) string {
	return string(sweepAddr{suffix: o.keySuffix()}.appendKey(nil, variant, cores))
}

// keySuffix renders the options part of every cache key under o:
// "|seed=…|quick=…|placement=…|fault=…|arrival=…|link=…|shed=…". The fault
// term is the spec's canonical string ("none" for a clean run), so faulted
// points never alias clean ones and clean-run hits are unaffected by fault
// sweeps sharing the cache. The arrival/link/shed terms do the same for
// the open-loop specs ("none"/"none"/"fifo" when unset), so open-loop
// points never alias closed-loop ones. The terms record what the caller
// asked for, not what the experiment used: passing -link to a closed-loop
// sweep re-keys (and re-simulates) results a spec-less run already holds
// — the conservative direction, a stale alias is impossible.
func (o Options) keySuffix() string {
	return fmt.Sprintf("|seed=%d|quick=%t|placement=%s|fault=%s|arrival=%s|link=%s|shed=%s",
		o.seed(), o.Quick, o.Placement.String(), o.faultString(),
		o.Arrival.String(), o.Link.String(), o.Shed.String())
}

// faultString renders o.Fault canonically for the cache key.
func (o Options) faultString() string {
	if o.Fault == nil {
		return "none"
	}
	return o.Fault.String()
}

// cacheSectionID names the cache section a point belongs to: the bare
// experiment ID on the default machine (so historical caches stay warm),
// or "exp@machine" on any other machine — each simulated host is its own
// cost domain, and points for different hosts never alias.
func (o Options) cacheSectionID(exp string) string {
	if m := o.machine(); !m.IsDefault() {
		return exp + "@" + m.Name
	}
	return exp
}

// sweepAddr is the part of a point's cache address that every point of one
// fan-out shares: the experiment, its section, the cost-model fingerprint
// the section must carry ("" with no cache attached), and the options part
// of the key. A sweep builds it once, before fanning out, since no domain
// is retuned while a sweep runs. It is deliberately not memoized across
// runs: a domain may be retuned between two runs sharing one Cache, and
// the second run must see the new fingerprint.
type sweepAddr struct{ exp, sec, fp, suffix string }

// sweepAddr addresses exp's points under o.
func (o Options) sweepAddr(exp string) sweepAddr {
	a := sweepAddr{exp: exp, sec: o.cacheSectionID(exp), suffix: o.keySuffix()}
	if o.Cache != nil {
		a.fp = fingerprintFor(a.sec)
	}
	return a
}

// appendKey appends the cache key of (variant, cores) to b: the variant,
// the core count, then the shared options suffix.
func (a sweepAddr) appendKey(b []byte, variant string, cores int) []byte {
	b = append(b, variant...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cores), 10)
	return append(b, a.suffix...)
}

// keyBufLen sizes the stack buffer a point's key is built in; a key that
// outgrows it (a long fault or load spec) just spills to the heap.
const keyBufLen = 256

// lookupPoint serves the point keyed key under a from o.Cache. With no
// cache attached it misses without counting.
func (o Options) lookupPoint(a sweepAddr, key []byte) (Point, bool) {
	if o.Cache == nil {
		return Point{}, false
	}
	return o.Cache.lookup(a.sec, a.fp, key)
}

// storePoint stores a freshly computed point under key. A point whose
// watchdog already abandoned it (see runGuarded) is never stored: its
// result was discarded, and a late store would poison reruns with a value
// no one validated.
func (o Options) storePoint(a sweepAddr, key string, p Point) {
	if o.Cache == nil || (o.abandoned != nil && o.abandoned.Load()) {
		return
	}
	o.Cache.store(a.sec, a.fp, key, p)
}
