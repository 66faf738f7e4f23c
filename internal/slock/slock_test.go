package slock

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

func setup(cores int) (*sim.Engine, *mem.Model) {
	m := topo.New(cores)
	return sim.NewEngine(m, 1), mem.NewModel(m)
}

func TestSpinLockMutualExclusion(t *testing.T) {
	e, md := setup(8)
	l := NewSpinLock(md, "l", 0)
	inside := 0
	maxInside := 0
	for c := 0; c < 8; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				l.Acquire(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Advance(100)
				inside--
				l.Release(p)
			}
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Errorf("max procs in critical section = %d, want 1", maxInside)
	}
	if l.Acquisitions() != 160 {
		t.Errorf("acquisitions = %d, want 160", l.Acquisitions())
	}
}

func TestSpinLockContentionSlowsEveryone(t *testing.T) {
	// Per-acquire cost must grow with the number of contending cores —
	// the non-scalable spin lock behavior of §4.1.
	perAcquire := func(cores int) float64 {
		e, md := setup(cores)
		l := NewSpinLock(md, "l", 0)
		const acquires = 50
		for c := 0; c < cores; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for i := 0; i < acquires; i++ {
					l.Acquire(p)
					p.Advance(50)
					l.Release(p)
				}
			})
		}
		e.Run()
		return float64(e.Now()) / float64(acquires)
	}
	c1, c8, c48 := perAcquire(1), perAcquire(8), perAcquire(48)
	if !(c1 < c8 && c8 < c48) {
		t.Errorf("per-acquire wall time not increasing: %v, %v, %v", c1, c8, c48)
	}
	// At 48 cores the serial section dominates: total time should be far
	// more than 48x the single-core per-acquire cost.
	if c48 < 10*c1 {
		t.Errorf("contention at 48 cores only %.1fx single core; want order-of-magnitude", c48/c1)
	}
}

func TestSpinLockSameCoreReacquireIsCheap(t *testing.T) {
	e, md := setup(2)
	l := NewSpinLock(md, "l", 0)
	var first, second int64
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		t0 := p.Now()
		l.Acquire(p)
		l.Release(p)
		first = p.Now() - t0
		t1 := p.Now()
		l.Acquire(p)
		l.Release(p)
		second = p.Now() - t1
	})
	e.Run()
	if second >= first {
		t.Errorf("re-acquire by previous holder cost %d, first acquire %d; want cheaper", second, first)
	}
}

func TestSpinLockReleaseUnheldPanics(t *testing.T) {
	e, md := setup(1)
	l := NewSpinLock(md, "l", 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("release of unheld lock did not panic")
			}
		}()
		l.Release(p)
	})
	e.Run()
}

func TestMutexMutualExclusion(t *testing.T) {
	e, md := setup(6)
	m := NewMutex(md, "m", 0)
	inside, maxInside := 0, 0
	for c := 0; c < 6; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				m.Acquire(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Advance(200)
				inside--
				m.Release(p)
			}
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Errorf("max procs in mutex section = %d, want 1", maxInside)
	}
}

func TestMutexStarvationCollapse(t *testing.T) {
	// The adaptive mutex must show superlinear per-op cost growth with
	// core count — the lseek collapse of §5.5.
	perOp := func(cores int) float64 {
		e, md := setup(cores)
		m := NewMutex(md, "inode", 0)
		const ops = 30
		for c := 0; c < cores; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					m.Acquire(p)
					p.Advance(30)
					m.Release(p)
				}
			})
		}
		e.Run()
		return float64(e.Now()) / float64(ops*cores) * float64(cores)
	}
	c4, c48 := perOp(4), perOp(48)
	if c48 < 4*c4 {
		t.Errorf("mutex per-op at 48 cores = %.0f vs %.0f at 4; want superlinear growth", c48, c4)
	}
}

func TestRWMutexReadersShareButPayCoherence(t *testing.T) {
	e, md := setup(8)
	rw := NewRWMutex(md, "regions", 0)
	inside, maxInside := 0, 0
	for c := 0; c < 8; c++ {
		e.Spawn(c, "reader", 0, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				rw.RLock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Advance(500)
				inside--
				rw.RUnlock(p)
			}
		})
	}
	e.Run()
	if maxInside < 2 {
		t.Errorf("readers never overlapped (max %d); RLock must admit concurrent readers", maxInside)
	}
	if rw.Contended() != 0 {
		t.Errorf("read-only workload had %d blocking acquisitions", rw.Contended())
	}
}

func TestRWMutexWriterExcludesReaders(t *testing.T) {
	e, md := setup(4)
	rw := NewRWMutex(md, "rw", 0)
	var events []string
	e.Spawn(0, "writer", 0, func(p *sim.Proc) {
		rw.Lock(p)
		events = append(events, "w+")
		p.Advance(1000)
		events = append(events, "w-")
		rw.Unlock(p)
	})
	for c := 1; c < 4; c++ {
		e.Spawn(c, "reader", 10, func(p *sim.Proc) {
			rw.RLock(p)
			events = append(events, "r+")
			p.Advance(100)
			events = append(events, "r-")
			rw.RUnlock(p)
		})
	}
	e.Run()
	// Writer must complete before any reader enters.
	for i, ev := range events {
		if ev == "r+" {
			if i < 2 {
				t.Errorf("reader entered before writer finished: %v", events)
			}
			break
		}
	}
}

func TestRWMutexReadScalingDegrades(t *testing.T) {
	// Even pure readers contend on the lock word: per-RLock cost grows
	// with core count (§5.8's 4KB-page Metis bottleneck).
	perLock := func(cores int) float64 {
		e, md := setup(cores)
		rw := NewRWMutex(md, "rw", 0)
		const ops = 40
		for c := 0; c < cores; c++ {
			e.Spawn(c, "r", 0, func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					rw.RLock(p)
					rw.RUnlock(p)
					p.Advance(50) // private work between faults
				}
			})
		}
		e.Run()
		return float64(e.Now()) / float64(ops)
	}
	c1, c48 := perLock(1), perLock(48)
	if c48 < 2*c1 {
		t.Errorf("read-lock wall time per op: %v at 1 core, %v at 48; want growth", c1, c48)
	}
}

func TestGenLockFreeReadFastPath(t *testing.T) {
	e, md := setup(2)
	g := NewGen(md, 0)
	fields := md.AllocN(0, 2)
	var ok bool
	e.Spawn(0, "reader", 0, func(p *sim.Proc) {
		ok = g.TryRead(p, fields)
	})
	e.Run()
	if !ok {
		t.Error("TryRead failed with no writer active")
	}
}

func TestGenReadFallsBackDuringWrite(t *testing.T) {
	e, md := setup(2)
	g := NewGen(md, 0)
	fields := md.AllocN(0, 1)
	var sawFallback bool
	writer := e.Spawn(0, "writer", 0, func(p *sim.Proc) {
		g.BeginWrite(p)
		p.Advance(5000)
		g.EndWrite(p)
	})
	_ = writer
	e.Spawn(1, "reader", 100, func(p *sim.Proc) {
		if !g.TryRead(p, fields) {
			sawFallback = true
		}
	})
	e.Run()
	if !sawFallback {
		t.Error("reader did not fall back while writer held the generation at 0")
	}
}

func TestGenWritePairingPanics(t *testing.T) {
	e, md := setup(1)
	g := NewGen(md, 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("EndWrite without BeginWrite did not panic")
			}
		}()
		g.EndWrite(p)
	})
	e.Run()
}

func TestSpinLockWaitCountsAsSystemTime(t *testing.T) {
	e, md := setup(2)
	l := NewSpinLock(md, "l", 0)
	e.Spawn(0, "holder", 0, func(p *sim.Proc) {
		l.Acquire(p)
		p.Advance(10000)
		l.Release(p)
	})
	e.Spawn(1, "waiter", 1, func(p *sim.Proc) {
		l.Acquire(p)
		l.Release(p)
	})
	e.Run()
	if got := e.SysCycles(1); got < 5000 {
		t.Errorf("waiter sys time = %d; busy-wait must be accounted as system time", got)
	}
}

// TestContendedCycleAllocatesNothing guards the wait queues' host cost:
// a dequeue keeps the queue's capacity, so once every lock has queued its
// peak number of waiters, contended acquire/release cycles allocate
// nothing.
func TestContendedCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const cores = 8
	for name, mk := range map[string]func(*mem.Model) Locker{
		"spin":  func(md *mem.Model) Locker { return NewSpinLock(md, "l", 0) },
		"mutex": func(md *mem.Model) Locker { return NewMutex(md, "l", 0) },
		"mcs":   func(md *mem.Model) Locker { return NewMCSLock(md, "l", 0) },
	} {
		e, md := setup(cores)
		l := mk(md)
		cycle := func(p *sim.Proc) {
			l.Acquire(p)
			p.Advance(100)
			l.Release(p)
		}
		done := false
		var allocs float64
		e.Spawn(0, "measure", 0, func(p *sim.Proc) {
			for range 200 {
				cycle(p)
			}
			// Each run spans 64 cycles, so a queue that reallocates
			// every few dequeues shows up in the per-run average.
			allocs = testing.AllocsPerRun(20, func() {
				for range 64 {
					cycle(p)
				}
			})
			done = true
		})
		for c := 1; c < cores; c++ {
			e.Spawn(c, "contend", 0, func(p *sim.Proc) {
				for !done {
					cycle(p)
				}
			})
		}
		e.Run()
		if l.Contended() == 0 {
			t.Fatalf("%s: no acquire waited; the test needs contention", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a contended acquire/release cycle allocates %.1f objects per 64 cycles, want 0", name, allocs)
		}
	}
}
