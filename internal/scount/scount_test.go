package scount

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

func setup(cores int) (*sim.Engine, *mem.Model) {
	m := topo.New(cores)
	return sim.NewEngine(m, 1), mem.NewModel(m)
}

func TestSharedCounterValue(t *testing.T) {
	e, md := setup(4)
	s := NewShared(md, 0)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				s.Acquire(p, 1)
			}
			for i := 0; i < 10; i++ {
				s.Release(p, 1)
			}
		})
	}
	e.Run()
	if s.InUse() != 0 {
		t.Errorf("final value = %d, want 0", s.InUse())
	}
}

func TestSharedOverReleasePanics(t *testing.T) {
	e, md := setup(1)
	s := NewShared(md, 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("over-release did not panic")
			}
		}()
		s.Release(p, 1)
	})
	e.Run()
}

func TestSloppyInvariantUnderRandomOps(t *testing.T) {
	// Property: after any sequence of acquire/release pairs from random
	// cores, central == inUse + sum(spares).
	check := func(seed uint64, opsPattern []uint8) bool {
		m := topo.New(48)
		e := sim.NewEngine(m, seed)
		md := mem.NewModel(m)
		s := NewSloppy(md, 0)
		held := make([]int, 48)
		broken := false
		for c := 0; c < 48; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for _, op := range opsPattern {
					if op%2 == 0 || held[c] == 0 {
						s.Acquire(p, 1)
						held[c]++
					} else {
						s.Release(p, 1)
						held[c]--
					}
					if s.Check() != nil {
						broken = true
					}
					p.Advance(10)
				}
			})
		}
		e.Run()
		return !broken && s.Check() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSloppyReconcileIsTrueValue(t *testing.T) {
	e, md := setup(8)
	s := NewSloppy(md, 0)
	var got int64
	for c := 0; c < 8; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			s.Acquire(p, 3)
			s.Release(p, 1)
		})
	}
	e.Run()
	// Reconcile from a fresh proc against the same memory model.
	eR := sim.NewEngine(md.Machine(), 3)
	eR.Spawn(0, "reconciler", 0, func(p *sim.Proc) {
		got = s.Reconcile(p)
	})
	eR.Run()
	if got != 16 { // 8 cores x (3 acquired - 1 released)
		t.Errorf("reconciled value = %d, want 16", got)
	}
	if got != s.InUse() {
		t.Errorf("reconcile %d != in-use %d", got, s.InUse())
	}
}

func TestSloppyMostOpsAreLocalInSteadyState(t *testing.T) {
	e, md := setup(48)
	s := NewSloppy(md, 0)
	for c := 0; c < 48; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			// Warm up the local pool, then churn acquire/release.
			for i := 0; i < 200; i++ {
				s.Acquire(p, 1)
				p.Advance(50)
				s.Release(p, 1)
			}
		})
	}
	e.Run()
	if s.CentralOps()*20 > s.LocalOps() {
		t.Errorf("central ops %d vs local %d; steady-state churn should be core-local",
			s.CentralOps(), s.LocalOps())
	}
}

func TestSloppyScalesBetterThanShared(t *testing.T) {
	// The headline property: per-op cost of a shared counter grows with
	// core count; a sloppy counter's stays near-flat.
	perOp := func(ctr Counter, cores int) float64 {
		m := topo.New(cores)
		e := sim.NewEngine(m, 1)
		const ops = 200
		for c := 0; c < cores; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					ctr.Acquire(p, 1)
					ctr.Release(p, 1)
				}
			})
		}
		e.Run()
		return float64(e.Now()) / float64(ops)
	}

	mShared := mem.NewModel(topo.New(48))
	mSloppy := mem.NewModel(topo.New(48))
	shared := NewShared(mShared, 0)
	shared48 := perOp(&shared, 48)
	sloppy48 := perOp(NewSloppy(mSloppy, 0), 48)
	if shared48 < 5*sloppy48 {
		t.Errorf("at 48 cores shared counter wall-time/op = %.0f, sloppy = %.0f; want shared >> sloppy",
			shared48, sloppy48)
	}
}

func TestSloppyThresholdBoundsSpares(t *testing.T) {
	e, md := setup(4)
	s := NewSloppy(md, 0)
	s.Threshold = 4
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				s.Acquire(p, 1)
				s.Release(p, 1)
			}
		})
	}
	e.Run()
	for c, pool := range s.cores {
		if pool.spares > s.Threshold {
			t.Errorf("core %d spare pool %d exceeds threshold %d", c, pool.spares, s.Threshold)
		}
	}
	if err := s.Check(); err != nil {
		t.Error(err)
	}
}

func TestSloppyOverReleasePanics(t *testing.T) {
	e, md := setup(1)
	s := NewSloppy(md, 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("over-release did not panic")
			}
		}()
		s.Release(p, 1)
	})
	e.Run()
}

func TestSloppyBatchedAcquire(t *testing.T) {
	e, md := setup(2)
	s := NewSloppy(md, 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		s.Acquire(p, 5)
		if err := s.Check(); err != nil {
			t.Error(err)
		}
		s.Release(p, 5)
		if err := s.Check(); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if s.InUse() != 0 {
		t.Errorf("in-use after batch = %d, want 0", s.InUse())
	}
}

// sloppySink and sloppiesSink keep the counters
// TestNewSloppyAllocationBudget builds on the heap, as a kernel object's
// counter is.
var (
	sloppySink   *Sloppy
	sloppiesSink []Sloppy
)

// TestNewSloppyAllocationBudget pins a sloppy counter's host cost: the
// counter and one array holding every core's spare count and line. A
// batch of counters costs the same two objects, whatever its size.
func TestNewSloppyAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	md := mem.NewModel(topo.New(48))
	allocs := testing.AllocsPerRun(100, func() { sloppySink = NewSloppy(md, 0) })
	if allocs != 2 {
		t.Errorf("NewSloppy allocates %.0f objects, want 2", allocs)
	}
	lines := md.NumLines()
	for _, n := range []int{1, 8, 256} {
		allocs := testing.AllocsPerRun(100, func() { sloppiesSink = NewSloppies(md, n) })
		if allocs != 2 {
			t.Errorf("NewSloppies(md, %d) allocates %.0f objects, want 2", n, allocs)
		}
	}
	if got := md.NumLines(); got != lines {
		t.Errorf("NewSloppies allocated %d lines, want 0", got-lines)
	}
}

// TestBatchCounterMatchesNewSloppy checks that a counter from a
// NewSloppies batch, once Reset, is the counter NewSloppy builds: it
// allocates its central line in Reset, its pools are its own, and it
// charges the same costs.
func TestBatchCounterMatchesNewSloppy(t *testing.T) {
	run := func(batch bool) (costs []int64, lines int) {
		m := topo.New(4)
		md := mem.NewModel(m)
		e := sim.NewEngine(m, 1)
		var s *Sloppy
		var neighbours []*Sloppy
		if batch {
			ss := NewSloppies(md, 3)
			s = &ss[1]
			s.Reset(0)
			// The neighbours share the pool array but not the pools:
			// the spares s leaves in its pools must not show in theirs.
			ss[0].Reset(0)
			ss[2].Reset(0)
			neighbours = []*Sloppy{&ss[0], &ss[2]}
		} else {
			s = NewSloppy(md, 0)
		}
		for c := 0; c < 4; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for range 20 {
					t0 := p.Now()
					s.Acquire(p, 1)
					s.Release(p, 1)
					costs = append(costs, p.Now()-t0)
				}
			})
		}
		e.Run()
		for _, c := range append(neighbours, s) {
			if err := c.Check(); err != nil {
				t.Fatal(err)
			}
		}
		return costs, md.NumLines()
	}
	single, singleLines := run(false)
	batch, batchLines := run(true)
	if !slices.Equal(single, batch) {
		t.Errorf("batch counter costs %v, NewSloppy's %v", batch, single)
	}
	if batchLines != singleLines+2 {
		t.Errorf("batch of 3 allocated %d lines, want the single counter's %d plus 2 central lines",
			batchLines, singleLines)
	}
}
