package slock

import (
	"testing"

	"repro/internal/sim"
)

func TestMCSMutualExclusion(t *testing.T) {
	e, md := setup(8)
	l := NewMCSLock(md, "mcs", 0)
	inside, maxInside := 0, 0
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
		t.Errorf("max procs in MCS critical section = %d, want 1", maxInside)
	}
	if got := md.Prof.Lock("mcs").Acquisitions; got != 160 {
		t.Errorf("acquisitions = %d, want 160", got)
	}
}

func TestMCSScalesBetterThanTicketLock(t *testing.T) {
	// The defining property: per-acquire wall time under heavy contention
	// grows much more slowly than the ticket lock's, because the MCS
	// release is O(1) traffic while the ticket release slows the holder
	// in proportion to the waiters.
	perAcquire := func(mcs bool, cores int) float64 {
		e, md := setup(cores)
		var l Locker
		if mcs {
			l = NewMCSLock(md, "l", 0)
		} else {
			spin := NewSpinLock(md, "l", 0)
			l = &spin
		}
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
		return float64(e.Now()) / acquires
	}
	ticket48 := perAcquire(false, 48)
	mcs48 := perAcquire(true, 48)
	if mcs48 >= ticket48 {
		t.Errorf("MCS at 48 cores (%.0f cy/acquire) should beat ticket lock (%.0f)",
			mcs48, ticket48)
	}
}

func TestMCSFIFO(t *testing.T) {
	e, md := setup(4)
	l := NewMCSLock(md, "mcs", 0)
	var order []int
	e.Spawn(0, "holder", 0, func(p *sim.Proc) {
		l.Acquire(p)
		p.Advance(100_000)
		l.Release(p)
	})
	for c := 1; c < 4; c++ {
		c := c
		e.Spawn(c, "w", int64(c*100), func(p *sim.Proc) {
			l.Acquire(p)
			order = append(order, c)
			p.Advance(1000)
			l.Release(p)
		})
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Errorf("MCS handoff order %v is not FIFO", order)
		}
	}
}

func TestMCSReleaseUnheldPanics(t *testing.T) {
	e, md := setup(1)
	l := NewMCSLock(md, "mcs", 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("release of unheld MCS lock did not panic")
			}
		}()
		l.Release(p)
	})
	e.Run()
}
