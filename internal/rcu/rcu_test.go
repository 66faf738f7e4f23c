package rcu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

func setup(cores int) (*sim.Engine, *RCU) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	return sim.NewEngine(m, 1), New(md)
}

func TestReadSideIsCoreLocal(t *testing.T) {
	// Steady-state read-side sections on many cores must cost only cache
	// hits: per-reader cost stays flat as cores grow.
	perRead := func(cores int) float64 {
		e, r := setup(cores)
		const reads = 100
		for c := 0; c < cores; c++ {
			e.Spawn(c, "reader", 0, func(p *sim.Proc) {
				for i := 0; i < reads; i++ {
					r.ReadLock(p)
					p.Advance(50)
					r.ReadUnlock(p)
				}
			})
		}
		e.Run()
		return float64(e.Now()) / reads
	}
	r1, r48 := perRead(1), perRead(48)
	if r48 > r1*3/2 {
		t.Errorf("RCU read-side cost grew from %.0f to %.0f cycles; must stay core-local", r1, r48)
	}
}

func TestCallRCUIsCheap(t *testing.T) {
	e, r := setup(4)
	e.Spawn(0, "w", 0, func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 10; i++ {
			r.CallRCU(p)
		}
		if cost := p.Now() - t0; cost > 1000 {
			t.Errorf("10 call_rcu cost %d cycles; must be cheap", cost)
		}
	})
	e.Run()
}

func TestNestedReaders(t *testing.T) {
	e, r := setup(1)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		r.ReadLock(p)
		r.ReadLock(p)
		if !r.InReader(0) {
			t.Error("InReader false inside nested section")
		}
		r.ReadUnlock(p)
		if !r.InReader(0) {
			t.Error("InReader false after unbalancing one level")
		}
		r.ReadUnlock(p)
		if r.InReader(0) {
			t.Error("InReader true after full unlock")
		}
	})
	e.Run()
}

func TestUnbalancedUnlockPanics(t *testing.T) {
	e, r := setup(1)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unbalanced ReadUnlock did not panic")
			}
		}()
		r.ReadUnlock(p)
	})
	e.Run()
}

// TestGracePeriodWaitsForPriorReaders: a token expires once every core
// that was inside a read-side section at the call has left it. A reader
// that enters after the call does not delay it.
func TestGracePeriodWaitsForPriorReaders(t *testing.T) {
	e, r := setup(4)
	e.Spawn(1, "prior", 0, func(p *sim.Proc) {
		r.ReadLock(p)
		p.Idle(1000) // parked inside the section across the call
		r.ReadUnlock(p)
	})
	e.Spawn(2, "later", 200, func(p *sim.Proc) {
		r.ReadLock(p)
		p.Idle(10_000)
		r.ReadUnlock(p)
	})
	e.Spawn(0, "writer", 100, func(p *sim.Proc) {
		tok := r.CallRCU(p)
		p.IdleUntil(500)
		if r.Expired(tok) {
			t.Error("token expired while a prior reader was still inside its section")
		}
		p.IdleUntil(2000)
		if !r.Expired(tok) {
			t.Error("token not expired after every prior reader left; a later reader must not delay it")
		}
	})
	e.Run()
}

// TestCallDuringGracePeriodWaitsForTheNext: a grace period already in
// progress began before the call, so it cannot cover readers that entered
// since; the call waits for the next one, which begins when the current
// one ends.
func TestCallDuringGracePeriodWaitsForTheNext(t *testing.T) {
	e, r := setup(4)
	e.Spawn(1, "a", 0, func(p *sim.Proc) {
		r.ReadLock(p)
		p.Idle(1000)
		r.ReadUnlock(p)
	})
	e.Spawn(2, "b", 200, func(p *sim.Proc) {
		r.ReadLock(p)
		p.Idle(2800)
		r.ReadUnlock(p)
	})
	e.Spawn(0, "writer", 100, func(p *sim.Proc) {
		first := r.CallRCU(p)
		p.IdleUntil(300)
		second := r.CallRCU(p)
		if second != first+1 {
			t.Errorf("call during grace period %d got token %d, want %d", first, second, first+1)
		}
		p.IdleUntil(1500)
		if !r.Expired(first) || r.Expired(second) {
			t.Errorf("at 1500: first expired %v, second expired %v; want true, false",
				r.Expired(first), r.Expired(second))
		}
		p.IdleUntil(3500)
		if !r.Expired(second) {
			t.Error("second token not expired after reader b left")
		}
	})
	e.Run()
}

// TestGracePeriodWaitsForOutermostUnlock: a core leaves its section only
// at its outermost ReadUnlock, whichever proc on the core made it: a
// second proc's whole section nested inside a parked reader's ends
// nothing.
func TestGracePeriodWaitsForOutermostUnlock(t *testing.T) {
	e, r := setup(2)
	e.Spawn(1, "outer", 0, func(p *sim.Proc) {
		r.ReadLock(p)
		p.Idle(1000)
		r.ReadUnlock(p)
	})
	e.Spawn(1, "inner", 200, func(p *sim.Proc) {
		r.ReadLock(p)
		r.ReadLock(p)
		r.ReadUnlock(p)
		r.ReadUnlock(p)
	})
	e.Spawn(0, "writer", 100, func(p *sim.Proc) {
		tok := r.CallRCU(p)
		p.IdleUntil(600)
		if r.Expired(tok) {
			t.Error("token expired when a nested section on the reader's core ended")
		}
		p.IdleUntil(1500)
		if !r.Expired(tok) {
			t.Error("token not expired after the outermost ReadUnlock")
		}
	})
	e.Run()
}

// TestCallRCUAllocatesNothing: a grace period is tracked in per-core
// counters and one reused slice, with no closure or object per call.
func TestCallRCUAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e, r := setup(48)
	for c := 1; c < 48; c++ {
		e.Spawn(c, "reader", 0, func(p *sim.Proc) {
			for range 200 {
				r.ReadLock(p)
				p.Idle(50)
				r.ReadUnlock(p)
			}
		})
	}
	var allocs float64
	e.Spawn(0, "writer", 0, func(p *sim.Proc) {
		r.CallRCU(p) // grow the waiting list once
		allocs = testing.AllocsPerRun(100, func() {
			tok := r.CallRCU(p)
			p.Idle(30)
			r.Expired(tok)
		})
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("CallRCU+Expired allocates %.0f objects, want 0", allocs)
	}
}
