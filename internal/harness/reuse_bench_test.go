package harness

import "testing"

// BenchmarkSweepReuse measures a quick application sweep on the workers'
// pooled engines (the default): each point resets its worker's engine and
// resumes its parked proc coroutines. Compare against BenchmarkSweepFresh for the
// wall-clock gain of engine reuse.
func BenchmarkSweepReuse(b *testing.B) {
	e := ByID("fig5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Run(Options{Quick: true, Seed: 1})
	}
}

// BenchmarkSweepFresh is the no-reuse baseline: every sweep point builds
// a brand-new engine and spawns fresh goroutines.
func BenchmarkSweepFresh(b *testing.B) {
	e := ByID("fig5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Run(Options{Quick: true, Seed: 1, fresh: true})
	}
}

// BenchmarkCachedSweep measures a warm-cache sweep: after one priming
// run, every point is a cache hit and the sweep performs zero simulation.
func BenchmarkCachedSweep(b *testing.B) {
	c, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := ByID("fig5")
	o := Options{Quick: true, Seed: 1, Cache: c}
	e.Run(o) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(o)
	}
	b.StopTimer()
	if c.Misses() != int64(len(e.Run(o).Points)) {
		b.Fatalf("warm sweep missed the cache (%d misses)", c.Misses())
	}
}
