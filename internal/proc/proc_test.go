package proc

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
	"repro/internal/topo"
)

func setup(cores int, padded bool) (*sim.Engine, *mem.Model, *Table) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	ps := mm.NewPageStructs(md, 128, padded)
	return sim.NewEngine(m, 1), md, NewTable(md, ps)
}

func TestForkAssignsUniquePIDs(t *testing.T) {
	e, md, tbl := setup(4, true)
	alloc := mm.NewAllocator(md)
	pids := map[int]bool{}
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			parent := tbl.NewInitProcess(nil)
			for i := 0; i < 5; i++ {
				as := mm.NewAddressSpace(md, alloc, mm.Config{}, p.Chip())
				child := tbl.Fork(p, parent, as)
				if pids[child.PID] {
					t.Errorf("duplicate pid %d", child.PID)
				}
				pids[child.PID] = true
			}
		})
	}
	e.Run()
	if tbl.Forks() != 20 {
		t.Errorf("forks = %d, want 20", tbl.Forks())
	}
}

func TestCrossCoreChildStartIsSlower(t *testing.T) {
	// A child starting on a remote chip pays more for its first kernel
	// touches than one on the parent's core.
	e, _, tbl := setup(48, true)
	var localCost, remoteCost int64
	e.Spawn(0, "parent", 0, func(p *sim.Proc) {
		parent := tbl.NewInitProcess(nil)
		c1 := tbl.Fork(p, parent, nil)
		c2 := tbl.Fork(p, parent, nil)
		eng := p.Engine()
		eng.Spawn(0, "local-child", p.Now(), func(cp *sim.Proc) {
			t0 := cp.Now()
			tbl.ChildStart(cp, c1)
			localCost = cp.Now() - t0
		})
		eng.Spawn(47, "remote-child", p.Now(), func(cp *sim.Proc) {
			t0 := cp.Now()
			tbl.ChildStart(cp, c2)
			remoteCost = cp.Now() - t0
		})
	})
	e.Run()
	if remoteCost < 2*localCost {
		t.Errorf("remote child start %d cycles vs local %d; want clear cross-chip penalty",
			remoteCost, localCost)
	}
}

func TestExitIsCheaperOnCreatorCore(t *testing.T) {
	e, _, tbl := setup(48, true)
	var sameCore, crossCore int64
	e.Spawn(0, "parent", 0, func(p *sim.Proc) {
		parent := tbl.NewInitProcess(nil)
		c1 := tbl.Fork(p, parent, nil)
		t0 := p.Now()
		tbl.Exit(p, c1)
		sameCore = p.Now() - t0
		c2 := tbl.Fork(p, parent, nil)
		p.Engine().Spawn(42, "reaper", p.Now(), func(rp *sim.Proc) {
			t1 := rp.Now()
			tbl.Exit(rp, c2)
			crossCore = rp.Now() - t1
		})
	})
	e.Run()
	if crossCore <= sameCore {
		t.Errorf("cross-core exit %d cycles vs same-core %d; want penalty", crossCore, sameCore)
	}
}

func TestForkFalseSharingHurtsPageReaders(t *testing.T) {
	// Exim's §4.6 page false sharing: fork/exit churn updates page
	// reference counts; with the stock layout those writes invalidate the
	// read-mostly flags words that fault handlers on other cores read.
	run := func(padded bool) int64 {
		m := topo.New(48)
		md := mem.NewModel(m)
		e := sim.NewEngine(m, 1)
		ps := mm.NewPageStructs(md, 128, padded)
		tbl := NewTable(md, ps)
		alloc := mm.NewAllocator(md)
		for c := 0; c < 48; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				if c%2 == 0 {
					parent := tbl.NewInitProcess(nil)
					for i := 0; i < 6; i++ {
						as := mm.NewAddressSpace(md, alloc, mm.Config{}, p.Chip())
						child := tbl.Fork(p, parent, as)
						tbl.Exit(p, child)
					}
				} else {
					// Long-running fault-path flag reads, overlapping
					// the fork churn in time.
					for i := 0; i < 1500; i++ {
						p.Advance(md.Read(p.Core(), ps.FlagsLine(i), p.Now()))
						p.Advance(100)
					}
				}
			})
		}
		e.Run()
		var readers int64
		for c := 1; c < 48; c += 2 {
			readers += e.SysCycles(c)
		}
		return readers
	}
	stock, pk := run(false), run(true)
	// Fork churn is sparse relative to the readers' loop, so the penalty
	// here is moderate; the dense-writer case is asserted in
	// internal/mm's TestPageStructFalseSharing.
	if stock < pk*11/10 {
		t.Errorf("reader cycles with false sharing %d vs padded %d; want a visible penalty", stock, pk)
	}
}

func TestExecCounts(t *testing.T) {
	e, _, tbl := setup(1, true)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		tbl.Exec(p)
		tbl.Exec(p)
	})
	e.Run()
	if tbl.Execs() != 2 {
		t.Errorf("execs = %d, want 2", tbl.Execs())
	}
}

// TestForkExitAllocationBudget pins a fork's host cost: the sampled
// page-table lines live inside the Process, and Fork reuses the Process
// the last Exit kept, so in the steady state a Fork and Exit allocate
// nothing.
func TestForkExitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e, _, tbl := setup(1, false)
	parent := tbl.NewInitProcess(nil)
	var allocs float64
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			tbl.Exit(p, tbl.Fork(p, parent, nil))
		})
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("a Fork+Exit allocates %.0f objects, want 0", allocs)
	}
}

// TestExitFreesPageTableLines: Exit returns the process's 24 sampled
// page-table lines to the memory model, and the next Fork reuses them
// instead of growing the directory.
func TestExitFreesPageTableLines(t *testing.T) {
	e, md, tbl := setup(4, true)
	e.Spawn(1, "parent", 0, func(p *sim.Proc) {
		parent := tbl.NewInitProcess(nil)
		child := tbl.Fork(p, parent, nil)
		lines := md.NumLines()
		freed := map[mem.Line]bool{}
		for _, l := range child.ptLines {
			freed[l] = true
		}
		tbl.Exit(p, child)

		next := tbl.Fork(p, parent, nil)
		if md.NumLines() != lines {
			t.Errorf("fork after exit grew the directory from %d to %d lines", lines, md.NumLines())
		}
		for _, l := range next.ptLines {
			if !freed[l] {
				t.Errorf("fork after exit allocated line %d, not one the exited child freed", l)
			}
			delete(freed, l)
		}
		if len(freed) != 0 || len(next.ptLines) != ptSampleLines {
			t.Errorf("the next fork took %d lines and left %d of the exited child's; want all %d reused",
				len(next.ptLines), len(freed), ptSampleLines)
		}
	})
	e.Run()
}

// TestRecycledProcessChargesLikeFresh: two tables run the same fork,
// child start on another chip and exit twice. In one, the second Fork
// reuses the first child's Process; in the other, that Process is dropped,
// so the second child is fresh. Every step of the second child's life
// charges the same in both.
func TestRecycledProcessChargesLikeFresh(t *testing.T) {
	run := func(recycle bool) (costs []int64, reused bool) {
		e, _, tbl := setup(48, false)
		parent := tbl.NewInitProcess(nil)
		step := func(p *sim.Proc, do func()) {
			t0 := p.Now()
			do()
			costs = append(costs, p.Now()-t0)
		}
		var first *Process
		e.Spawn(0, "parent", 0, func(p *sim.Proc) {
			for i := range 2 {
				var child *Process
				step(p, func() { child = tbl.Fork(p, parent, nil) })
				if i == 0 {
					first = child
				} else {
					reused = child == first
				}
				done := false
				p.Engine().Spawn(47, "child", p.Now(), func(cp *sim.Proc) {
					step(cp, func() { tbl.ChildStart(cp, child) })
					step(cp, func() { tbl.Exit(cp, child) })
					done = true
				})
				for !done {
					p.Idle(1000)
				}
				if i == 0 {
					costs = costs[:0]
					if !recycle {
						tbl.exited = tbl.exited[:0]
					}
				}
			}
		})
		e.Run()
		return costs, reused
	}
	recycled, reused := run(true)
	fresh, freshReused := run(false)
	if !reused || freshReused {
		t.Fatalf("the second fork reused the first child: %v with reuse, %v without; want true, false", reused, freshReused)
	}
	if !reflect.DeepEqual(recycled, fresh) {
		t.Errorf("a recycled process charged %v, a fresh one %v", recycled, fresh)
	}
}
