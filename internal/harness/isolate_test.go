package harness

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// isoRuns is a trivial one-variant grid whose points are pure functions of
// the core count, so surviving points are easy to check.
func isoRuns() []variantRun {
	return []variantRun{{"V", func(c int, o Options) Point {
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
}

// TestPointPanicRunsOnce: a point whose body panics runs exactly once and
// lands in Failed. The worker's next point runs on the same engine slot,
// whose Reset stops whatever the panic left behind, and must equal the
// same point on a fresh engine.
func TestPointPanicRunsOnce(t *testing.T) {
	defer func() { testPointHook = nil }()
	mc := apps.DefaultMemcachedOpts()
	mc.RequestsPerCore = 5
	var mu sync.Mutex
	runs := map[int]int{}
	slots := map[int]*engineSlot{}
	testPointHook = func(exp, variant string, cores int) {
		mu.Lock()
		runs[cores]++
		mu.Unlock()
	}
	memcached := []variantRun{{"V", func(c int, o Options) Point {
		k := o.newKernel(o.topo(c), kernel.PK())
		mu.Lock()
		slots[c] = o.slot
		mu.Unlock()
		if c == 8 {
			// Panic mid-run, leaving every other proc parked.
			for core := 0; core < c; core++ {
				k.Engine.Spawn(core, "spin", 0, func(p *sim.Proc) {
					for {
						p.Advance(100)
					}
				})
			}
			k.Engine.Spawn(0, "bomb", 1000, func(*sim.Proc) { panic("injected persistent panic") })
			k.Engine.Run()
		}
		r := apps.RunMemcached(k, mc)
		return Point{Cores: c, Variant: "V", PerCore: r.PerCore()}
	}}}
	o := Options{Cores: []int{1, 8, 48}, Seed: 1, Serial: true}
	s := &Series{ID: "iso-test"}
	o.runGrid(s, memcached)
	if len(s.Failed) != 1 || s.Failed[0].Cores != 8 {
		t.Fatalf("failed points = %+v, want exactly the 8-core one", s.Failed)
	}
	if len(s.Points) != 2 || s.Points[0].Cores != 1 || s.Points[1].Cores != 48 {
		t.Fatalf("surviving points = %+v, want cores 1 and 48", s.Points)
	}
	for _, cores := range o.Cores {
		if runs[cores] != 1 {
			t.Errorf("point at %d cores ran %d times, want 1", cores, runs[cores])
		}
	}
	if slots[8] == nil || slots[48] != slots[8] {
		t.Errorf("the point after the panic ran on slot %p, want the panicked point's %p", slots[48], slots[8])
	}
	fo := o
	fo.Cores, fo.fresh = []int{48}, true
	fresh := &Series{ID: "iso-test"}
	fo.runGrid(fresh, memcached)
	if len(fresh.Points) != 1 || !reflect.DeepEqual(fresh.Points[0], s.Points[1]) {
		t.Errorf("48-core point after the panic = %+v, fresh-engine run = %+v", s.Points[1], fresh.Points)
	}
}

// TestPanicRetryCountsOneCacheMiss pins the cache accounting of a point
// that panics and is retried by rerunning its sweep. The lookup happens
// once, before the guarded body, so the panicking run is one miss and
// stores nothing; the rerun, whose body succeeds, is one more miss for
// that point and stores it; a third run is all hits and returns the
// second run's points.
func TestPanicRetryCountsOneCacheMiss(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	runs := []variantRun{{"V", func(c int, o Options) Point {
		if c == 8 && panicking.Load() {
			panic("injected transient panic")
		}
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	o := Options{Cores: []int{1, 8}, Seed: 1, Cache: c}
	s := &Series{ID: "iso-test"}
	o.runGrid(s, runs)
	if len(s.Failed) != 1 || len(s.Points) != 1 {
		t.Fatalf("got %d points, %d failures; want 1 and 1", len(s.Points), len(s.Failed))
	}
	if got := c.Misses(); got != 2 {
		t.Errorf("Misses() = %d after a 2-point sweep with one panicking point, want 2", got)
	}
	if got := c.Stats().Experiments["iso-test"].Misses; got != 2 {
		t.Errorf("iso-test section misses = %d, want 2", got)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("cache holds %d points, want 1 (the panicked point stores nothing)", got)
	}
	panicking.Store(false)
	retried := &Series{ID: "iso-test"}
	o.runGrid(retried, runs)
	if len(retried.Failed) != 0 || len(retried.Points) != 2 {
		t.Fatalf("retry got %d points, %d failures; want 2 and 0", len(retried.Points), len(retried.Failed))
	}
	if got := c.Misses(); got != 3 {
		t.Errorf("Misses() = %d after the retry, want 3 (only the failed point misses again)", got)
	}
	if got := c.Hits(); got != 1 {
		t.Errorf("Hits() = %d after the retry, want 1", got)
	}
	primedMisses := c.Misses()
	s2 := &Series{ID: "iso-test"}
	o.runGrid(s2, runs)
	if got := c.Misses() - primedMisses; got != 0 {
		t.Errorf("warm rerun missed %d times, want all hits", got)
	}
	if got := c.Hits(); got != 3 {
		t.Errorf("Hits() = %d after the warm rerun, want 3", got)
	}
	if !reflect.DeepEqual(s2.Points, retried.Points) {
		t.Errorf("warm rerun points %+v differ from the primed %+v", s2.Points, retried.Points)
	}
}

// TestWarmHitsBypassGuard pins that a cache hit is served on the sweep
// worker without entering the guarded point body: with every point set
// to panic, a warm rerun still returns the primed series
// in full, because no point body runs at all.
func TestWarmHitsBypassGuard(t *testing.T) {
	defer func() { testPointHook = nil }()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	e := ByID("fig4")
	o := Options{Quick: true, Seed: 1, Cache: c}
	primed := e.Run(o)
	if len(primed.Failed) != 0 || len(primed.Points) == 0 {
		t.Fatalf("priming run: %d points, %d failures", len(primed.Points), len(primed.Failed))
	}
	misses := c.Misses()
	var guarded atomic.Int64
	testPointHook = func(exp, variant string, cores int) {
		guarded.Add(1)
		panic("a warm hit must not enter the guarded body")
	}
	warm := e.Run(o)
	if len(warm.Failed) != 0 {
		t.Fatalf("warm rerun failed %d points: %+v", len(warm.Failed), warm.Failed)
	}
	if !reflect.DeepEqual(warm, primed) {
		t.Errorf("warm rerun differs from the primed series:\nwarm:   %+v\nprimed: %+v", warm, primed)
	}
	if got := c.Misses() - misses; got != 0 {
		t.Errorf("warm rerun missed %d times, want 0", got)
	}
	if got := guarded.Load(); got != 0 {
		t.Errorf("guarded body ran %d times on a warm rerun, want 0", got)
	}
}

// TestSweepNamesItsPoints pins that a point's identity comes from its
// sweep address, not its body: a body that sets neither Variant nor Cores
// still yields points named by their variant and x value, fresh and when
// replayed from the saved cache.
func TestSweepNamesItsPoints(t *testing.T) {
	runs := []variantRun{
		{"A", func(int, Options) Point { return Point{PerCore: 1} }},
		{"B", func(int, Options) Point { return Point{PerCore: 1} }},
	}
	want := []Point{
		{Variant: "A", Cores: 1, PerCore: 1}, {Variant: "A", Cores: 8, PerCore: 1},
		{Variant: "B", Cores: 1, PerCore: 1}, {Variant: "B", Cores: 8, PerCore: 1},
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	fresh := &Series{ID: "iso-test"}
	Options{Cores: []int{1, 8}, Seed: 1, Cache: c}.runGrid(fresh, runs)
	if !reflect.DeepEqual(fresh.Points, want) {
		t.Errorf("fresh points %+v, want %+v", fresh.Points, want)
	}
	if err := c.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	replayed := &Series{ID: "iso-test"}
	Options{Cores: []int{1, 8}, Seed: 1, Cache: reopened}.runGrid(replayed, runs)
	if got := reopened.Hits(); got != int64(len(want)) {
		t.Errorf("replay hit %d times, want %d", got, len(want))
	}
	if !reflect.DeepEqual(replayed.Points, want) {
		t.Errorf("replayed points %+v, want %+v", replayed.Points, want)
	}
}

// TestPersistentPanicFailsExactlyOnePoint: a point that panics every time
// it runs fails on its own. It becomes one Failed entry carrying the panic
// value, runs once, and the sweep's other points survive in grid order.
func TestPersistentPanicFailsExactlyOnePoint(t *testing.T) {
	defer func() { testPointHook = nil }()
	var runs atomic.Int64
	testPointHook = func(exp, variant string, cores int) {
		if cores == 8 {
			runs.Add(1)
			panic("injected persistent panic")
		}
	}
	o := Options{Cores: []int{1, 8, 48}, Seed: 1}
	s := &Series{ID: "iso-test"}
	o.runGrid(s, isoRuns())
	if len(s.Failed) != 1 {
		t.Fatalf("failed points = %+v, want exactly one", s.Failed)
	}
	f := s.Failed[0]
	if f.Variant != "V" || f.Cores != 8 {
		t.Errorf("failed point identifies %s@%d, want V@8", f.Variant, f.Cores)
	}
	if !strings.Contains(f.Err, "injected persistent panic") {
		t.Errorf("failure %q should carry the panic value", f.Err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("the panicking point ran %d times, want 1", got)
	}
	// Every other point survived, in grid order.
	if len(s.Points) != 2 || s.Points[0].Cores != 1 || s.Points[1].Cores != 48 {
		t.Fatalf("surviving points = %+v, want cores 1 and 48", s.Points)
	}
	// The failure is visible in the rendered table.
	if out := Format(s); !strings.Contains(out, "failed points (1)") {
		t.Errorf("Format does not surface the failure:\n%s", out)
	}
}

// TestAbandonedPointStaysOutOfCache is the regression guard for the late
// cache store: a point the watchdog abandoned may unwedge and finish long
// after its sweep moved on, and its result must not reach the shared
// cache — the point was already reported failed, and a rerun must
// re-simulate it rather than replay a value nobody validated.
func TestAbandonedPointStaysOutOfCache(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	var simsAt8 atomic.Int64
	release := make(chan struct{})
	runs := []variantRun{{"V", func(cores int, o Options) Point {
		if cores == 8 {
			simsAt8.Add(1)
			<-release // wedge until the test unblocks us (closed after run 1)
		}
		return Point{Cores: cores, Variant: "V", PerCore: float64(cores)}
	}}}
	o := Options{Cores: []int{1, 8}, Seed: 1, PointTimeout: 100 * time.Millisecond, Cache: c}
	s := &Series{ID: "iso-test"}
	o.runGrid(s, runs)
	if len(s.Failed) != 1 || !strings.Contains(s.Failed[0].Err, "timed out") {
		t.Fatalf("failed points = %+v, want the wedged point timed out", s.Failed)
	}
	// Unwedge the abandoned child and give it ample time to finish — and,
	// pre-fix, to land its late store.
	close(release)
	time.Sleep(500 * time.Millisecond)
	if got := c.Len(); got != 1 {
		t.Fatalf("cache holds %d points after the abandoned point finished, want only cores=1", got)
	}
	// A rerun must re-simulate the abandoned point, not replay it.
	s2 := &Series{ID: "iso-test"}
	o.runGrid(s2, runs)
	if got := simsAt8.Load(); got != 2 {
		t.Errorf("cores=8 simulated %d times across both runs, want 2 (the rerun must not be served from cache)", got)
	}
	if len(s2.Points) != 2 || len(s2.Failed) != 0 {
		t.Errorf("rerun produced %d points, %d failures; want 2 and 0", len(s2.Points), len(s2.Failed))
	}
}

// TestAbandonedPointKeepsItsSlot: a point that wedges past the watchdog
// keeps the engine slot it booted on, and its sweep worker goes on with a
// new one. The next point unwedges it, so the abandoned body boots and
// runs a second kernel on its slot while the sweep is still running; under
// -race that proves the two never share an engine or a page list. Once
// the abandoned body returns, it closes its slot's engine.
func TestAbandonedPointKeepsItsSlot(t *testing.T) {
	defer func() { testPointEndHook = nil }()
	mc := apps.DefaultMemcachedOpts()
	mc.RequestsPerCore = 5
	var mu sync.Mutex
	slots := map[int]*engineSlot{}
	release := make(chan struct{})
	finished := make(chan struct{})
	testPointEndHook = func(_, _ string, c int) {
		if c == 2 {
			close(finished)
		}
	}
	runs := []variantRun{{"V", func(c int, o Options) Point {
		apps.RunMemcached(o.newKernel(o.topo(c), kernel.PK()), mc)
		mu.Lock()
		slots[c] = o.slot
		mu.Unlock()
		switch c {
		case 2:
			<-release
			apps.RunMemcached(o.newKernel(o.topo(c), kernel.PK()), mc)
		case 4:
			close(release)
		}
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
	// The timeout leaves room for the other points' kernels under -race.
	o := Options{Cores: []int{1, 2, 4, 8}, Seed: 1, Serial: true, PointTimeout: time.Second}
	s := &Series{ID: "iso-test"}
	o.runGrid(s, runs)
	if len(s.Failed) != 1 || s.Failed[0].Cores != 2 || !strings.Contains(s.Failed[0].Err, "timed out") {
		t.Fatalf("failed points = %+v, want just cores=2 timed out", s.Failed)
	}
	if len(s.Points) != 3 {
		t.Fatalf("surviving points = %+v, want cores 1, 4 and 8", s.Points)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the released body did not finish its second kernel")
	}
	mu.Lock()
	defer mu.Unlock()
	wedged := slots[2]
	if wedged == nil {
		t.Fatal("the wedged point ran without an engine slot")
	}
	if slots[1] != wedged {
		t.Error("the worker's first two points ran on different slots")
	}
	if slots[4] == wedged || slots[8] != slots[4] {
		t.Error("the worker did not move on to one new slot after the wedge")
	}
	if got := len(wedged.booted); got != 2 {
		t.Errorf("abandoned slot booted %d models, want 2 (both of its body's kernels)", got)
	}
	if n := wedged.eng.NumParked(); n != 0 {
		t.Errorf("abandoned slot's engine parks %d coroutines after its body returned, want 0", n)
	}
}

// TestSweepClosesItsEngines: when a sweep ends, each worker closes its
// slot's engine, so no parked proc coroutine outlives the sweep. The
// wedged point's slot is the exception: its body may still be running on
// it, so the body closes it (TestAbandonedPointKeepsItsSlot).
func TestSweepClosesItsEngines(t *testing.T) {
	mc := apps.DefaultMemcachedOpts()
	mc.RequestsPerCore = 5
	var mu sync.Mutex
	var seen []*engineSlot
	var wedged *engineSlot
	release := make(chan struct{})
	finished := make(chan struct{})
	runs := []variantRun{{"V", func(c int, o Options) Point {
		apps.RunMemcached(o.newKernel(o.topo(c), kernel.PK()), mc)
		mu.Lock()
		if c == 16 {
			wedged = o.slot
		} else {
			seen = append(seen, o.slot)
		}
		mu.Unlock()
		if c == 16 {
			defer close(finished)
			<-release
		}
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
	o := Options{Cores: []int{1, 2, 4, 8, 16, 24, 32, 48}, Seed: 1, PointTimeout: time.Second}
	s := &Series{ID: "iso-test"}
	o.runGrid(s, runs)
	close(release)
	<-finished
	if len(s.Failed) != 1 || s.Failed[0].Cores != 16 {
		t.Fatalf("failed points = %+v, want just cores=16 timed out", s.Failed)
	}
	mu.Lock()
	defer mu.Unlock()
	checked := 0
	for i, slot := range seen {
		if slot == nil || slot.eng == nil {
			t.Fatalf("point %d ran without a pooled engine", i)
		}
		if slot == wedged {
			continue // a point its worker ran before the wedge
		}
		checked++
		if n := slot.eng.NumParked(); n != 0 {
			t.Errorf("point %d's engine still parks %d coroutines after the sweep", i, n)
		}
	}
	if checked == 0 {
		t.Fatal("every point ran on the wedged point's slot")
	}
}

func TestWedgedPointHitsWatchdogWithoutRetry(t *testing.T) {
	defer func() { testPointHook = nil }()
	var wedgeAttempts atomic.Int64
	testPointHook = func(exp, variant string, cores int) {
		if cores == 8 {
			wedgeAttempts.Add(1)
			time.Sleep(1500 * time.Millisecond) // past the watchdog
		}
	}
	o := Options{Cores: []int{1, 8}, Seed: 1, PointTimeout: 100 * time.Millisecond}
	s := &Series{ID: "iso-test"}
	start := time.Now()
	o.runGrid(s, isoRuns())
	if len(s.Failed) != 1 || !strings.Contains(s.Failed[0].Err, "timed out") {
		t.Fatalf("failed points = %+v, want one timeout", s.Failed)
	}
	if len(s.Points) != 1 || s.Points[0].Cores != 1 {
		t.Fatalf("surviving points = %+v, want just cores=1", s.Points)
	}
	if got := wedgeAttempts.Load(); got != 1 {
		t.Errorf("wedged point ran %d times, want 1 (timeouts are not retried)", got)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("sweep took %s; the watchdog should cut the wedge off quickly", took)
	}
	// Let the leaked sleeper drain before the next test reuses the hook.
	time.Sleep(1600 * time.Millisecond)
}

// TestDMAPanicFailsOnlyThatPoint: dma's points run through the same guard
// as every grid point, so a point that panics runs once and costs that
// point alone: it is reported failed, the other point survives, and the
// derived gain note says why it is missing.
func TestDMAPanicFailsOnlyThatPoint(t *testing.T) {
	defer func() { testPointHook = nil }()
	var ran atomic.Int64
	testPointHook = func(exp, variant string, cores int) {
		if exp == "dma" && variant == "local pools" {
			ran.Add(1)
			panic("injected persistent panic")
		}
	}
	s := ByID("dma").Run(Options{Quick: true, Seed: 1})
	if len(s.Failed) != 1 || s.Failed[0].Variant != "local pools" {
		t.Fatalf("failed points = %+v, want exactly local pools", s.Failed)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("panicking point ran %d times, want 1", got)
	}
	if len(s.Points) != 1 || s.Points[0].Variant != "node-0 pool" {
		t.Errorf("surviving points = %+v, want just node-0 pool", s.Points)
	}
	if len(s.Notes) != 1 || !strings.Contains(s.Notes[0], "skipped: a measurement failed") {
		t.Errorf("notes %q, want just the skipped gain", s.Notes)
	}
}

// TestSpoolDirsPanicFailsOnlyThatPoint: spool-dirs runs its directory
// counts as fanOut points, so one count that panics is reported failed and the other six still measure.
func TestSpoolDirsPanicFailsOnlyThatPoint(t *testing.T) {
	defer func() { testPointHook = nil }()
	testPointHook = func(exp, variant string, cores int) {
		if exp == "spool-dirs" && variant == "dirs=62" {
			panic("injected persistent panic")
		}
	}
	s := ByID("spool-dirs").Run(Options{Quick: true, Seed: 1})
	if len(s.Failed) != 1 || s.Failed[0].Variant != "dirs=62" {
		t.Fatalf("failed points = %+v, want exactly dirs=62", s.Failed)
	}
	if len(s.Points) != 6 {
		t.Errorf("%d surviving points, want 6: %+v", len(s.Points), s.Points)
	}
	for _, p := range s.Points {
		if p.Variant == "dirs=62" {
			t.Errorf("failed point dirs=62 also reported as measured: %+v", p)
		}
	}
}

// TestAblateWedgedPointHitsWatchdog: an ablate point that wedges is
// abandoned by the watchdog instead of hanging the run. A first run, with
// the target point panicking, primes the cache with the 31 others, so on
// the second run they are warm hits that never enter the guard, and the
// short watchdog can only catch the wedge.
func TestAblateWedgedPointHitsWatchdog(t *testing.T) {
	defer func() { testPointHook = nil }()
	target := kernel.Fixes[0].Name + "/fix"
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := ByID("ablate")
	o := Options{Quick: true, Seed: 1, Cache: c}
	testPointHook = func(exp, variant string, cores int) {
		if exp == "ablate" && variant == target {
			panic("injected persistent panic")
		}
	}
	primed := e.Run(o)
	if len(primed.Failed) != 1 || primed.Failed[0].Variant != target {
		t.Fatalf("priming run failed points = %+v, want exactly %s", primed.Failed, target)
	}
	if got, want := c.Len(), 2*len(kernel.Fixes)-1; got != want {
		t.Fatalf("priming run cached %d points, want %d", got, want)
	}
	if n := primed.Notes[0]; !strings.HasPrefix(n, kernel.Fixes[0].Name) || !strings.Contains(n, "skipped: a measurement failed") {
		t.Errorf("priming run's first note %q does not skip %s", n, kernel.Fixes[0].Name)
	}

	release := make(chan struct{})
	defer close(release)
	var wedged atomic.Int64
	testPointHook = func(exp, variant string, cores int) {
		if exp == "ablate" && variant == target {
			wedged.Add(1)
			<-release
			panic("released after the test") // an abandoned point never simulates
		}
	}
	o.PointTimeout = 100 * time.Millisecond
	s := e.Run(o)
	if len(s.Failed) != 1 || s.Failed[0].Variant != target || !strings.Contains(s.Failed[0].Err, "timed out") {
		t.Fatalf("failed points = %+v, want %s timed out", s.Failed, target)
	}
	if got := wedged.Load(); got != 1 {
		t.Errorf("wedged point ran %d times, want 1 (timeouts are not retried)", got)
	}
	if !reflect.DeepEqual(s.Notes, primed.Notes) {
		t.Errorf("notes after the wedge differ from the priming run's:\nwedge:  %q\nprimed: %q", s.Notes, primed.Notes)
	}
}
