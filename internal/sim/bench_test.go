package sim

import (
	"testing"

	"repro/internal/topo"
)

// BenchmarkAdvanceFastPath measures the cost of an Advance that does not
// change the dispatch order: a single proc repeatedly advancing. With the
// non-yielding fast path this costs no coroutine switch at all.
func BenchmarkAdvanceFastPath(b *testing.B) {
	e := NewEngine(topo.New(1), 1)
	e.Spawn(0, "runner", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(10)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkYieldHandoff measures a forced scheduling handoff: two procs on
// different cores with interleaved times, so every Advance must yield to
// the other proc. Each handoff is two coroutine switches: the yielder back
// to Run, and Run into the other proc.
func BenchmarkYieldHandoff(b *testing.B) {
	e := NewEngine(topo.New(2), 1)
	body := func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(10)
		}
	}
	e.Spawn(0, "a", 0, body)
	e.Spawn(1, "b", 5, body) // offset times => strict interleaving
	b.ResetTimer()
	e.Run()
}

// BenchmarkHandoffMany measures dispatch with a crowded runnable heap: 64
// procs on 48 cores, each idling a random 1..4000 cycles per step, keep
// about 60 procs runnable, so nearly every Idle hands off to another proc.
// That is latload's dispatch shape, so a heap or handoff change can be
// sized here before a full benchmark run. One op is one Idle.
func BenchmarkHandoffMany(b *testing.B) {
	const procs = 64
	e := NewEngine(topo.New(48), 1)
	steps := max(b.N/procs, 1)
	for i := range procs {
		e.Spawn(i%48, "idler", 0, func(p *Proc) {
			for range steps {
				p.Idle(1 + e.Rand.Int63n(4000))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnRunReusedParked measures a whole Spawn+Run cycle of 48
// trivial procs on one pooled engine reused via Reset — the sweep arena's
// steady state, where each Spawn hands a parked coroutine a new body.
func BenchmarkSpawnRunReusedParked(b *testing.B) {
	e := NewPooledEngine(topo.New(48), 1)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(1)
		for c := 0; c < 48; c++ {
			e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
		}
		e.Run()
	}
}

// BenchmarkSpawnRunFresh is the baseline BenchmarkSpawnRunReusedParked
// beats: a fresh plain engine (48 fresh coroutines, exiting on completion)
// per cycle.
func BenchmarkSpawnRunFresh(b *testing.B) {
	m := topo.New(48)
	for i := 0; i < b.N; i++ {
		e := NewEngine(m, 1)
		for c := 0; c < 48; c++ {
			e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
		}
		e.Run()
	}
}

// BenchmarkIdleFastPath measures Idle on a lone proc, which like Advance
// can skip the yield when no other proc could run earlier.
func BenchmarkIdleFastPath(b *testing.B) {
	e := NewEngine(topo.New(1), 1)
	e.Spawn(0, "idler", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Idle(3)
		}
	})
	b.ResetTimer()
	e.Run()
}
