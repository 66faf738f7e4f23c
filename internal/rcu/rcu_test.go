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
