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

// reportSwitches reports the run's coroutine switches per handoff.
func reportSwitches(b *testing.B, e *Engine) {
	b.ReportMetric(float64(e.Switches())/float64(e.Handoffs()), "switches/handoff")
}

// BenchmarkYieldHandoff measures a forced scheduling handoff: two procs on
// different cores with interleaved times, so every Advance must yield to
// the other proc. Each proc resumes the one that resumed it, so each
// handoff is one coroutine switch: the best case for dispatch.
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
	reportSwitches(b, e)
}

// BenchmarkHandoffMany measures dispatch with a crowded runnable heap: 64
// procs on 48 cores, each idling a random 1..4000 cycles per step, keep
// about 60 procs runnable, so nearly every Idle hands off to another proc.
// That is latload's crowding, but not its dispatch pattern: the
// successors here are random, so a proc almost never resumes the proc
// that resumed it (latload's A→B→A handoffs), and most handoffs cost two
// coroutine switches. It is the worst case for dispatch, where a heap
// change shows but a cheaper switch pattern does not; BenchmarkYieldHandoff
// is the best case. One op is one Idle.
func BenchmarkHandoffMany(b *testing.B) {
	const procs = 64
	e := NewEngine(topo.New(48), 1)
	spawnIdlers(e, procs, max(b.N/procs, 1))
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	reportSwitches(b, e)
}

// BenchmarkSpawnRunReusedParked measures a whole Spawn+Run cycle of 48
// trivial procs on one pooled engine reused via Reset — a sweep worker's
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
