package sim

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

func newTestEngine(cores int) *Engine {
	return NewEngine(topo.New(cores), 1)
}

func TestSingleProcAdvances(t *testing.T) {
	e := newTestEngine(1)
	var final int64
	e.Spawn(0, "p", 0, func(p *Proc) {
		p.Advance(100)
		p.Advance(50)
		final = p.Now()
	})
	e.Run()
	if final != 150 {
		t.Errorf("final time = %d, want 150", final)
	}
	if got := e.SysCycles(0); got != 150 {
		t.Errorf("sys cycles = %d, want 150", got)
	}
}

func TestUserVsSysAccounting(t *testing.T) {
	e := newTestEngine(1)
	e.Spawn(0, "p", 0, func(p *Proc) {
		p.AdvanceUser(70)
		p.Advance(30)
	})
	e.Run()
	if got := e.UserCycles(0); got != 70 {
		t.Errorf("user cycles = %d, want 70", got)
	}
	if got := e.SysCycles(0); got != 30 {
		t.Errorf("sys cycles = %d, want 30", got)
	}
}

// TestZeroAdvanceDoesNotYield pins the zero-cycle rule: an Advance or
// AdvanceUser of 0 cycles is a no-op that does not yield, even when
// another proc is runnable at the same time and would otherwise win the
// tie on its earlier sequence number.
func TestZeroAdvanceDoesNotYield(t *testing.T) {
	e := newTestEngine(2)
	var order []string
	e.Spawn(0, "a", 0, func(p *Proc) {
		order = append(order, "a1")
		p.Advance(0)
		p.AdvanceUser(0)
		order = append(order, "a2")
	})
	e.Spawn(1, "b", 0, func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	if got, want := strings.Join(order, ","), "a1,a2,b1"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if e.TotalSysCycles()+e.TotalUserCycles() != 0 {
		t.Errorf("zero-cycle advances charged %d sys + %d user cycles", e.TotalSysCycles(), e.TotalUserCycles())
	}
}

func TestCoreIsSerialResource(t *testing.T) {
	// Two procs on the same core each burning 100 cycles must finish at
	// 100 and 200, not both at 100.
	e := newTestEngine(1)
	var t1, t2 int64
	e.Spawn(0, "a", 0, func(p *Proc) { p.Advance(100); t1 = p.Now() })
	e.Spawn(0, "b", 0, func(p *Proc) { p.Advance(100); t2 = p.Now() })
	e.Run()
	if t1 == t2 {
		t.Errorf("same-core procs completed at identical times %d", t1)
	}
	if max64(t1, t2) != 200 {
		t.Errorf("later proc finished at %d, want 200", max64(t1, t2))
	}
}

func TestSeparateCoresRunInParallel(t *testing.T) {
	e := newTestEngine(2)
	var t1, t2 int64
	e.Spawn(0, "a", 0, func(p *Proc) { p.Advance(100); t1 = p.Now() })
	e.Spawn(1, "b", 0, func(p *Proc) { p.Advance(100); t2 = p.Now() })
	e.Run()
	if t1 != 100 || t2 != 100 {
		t.Errorf("parallel procs finished at %d, %d; want 100, 100", t1, t2)
	}
}

func TestIdleDoesNotOccupyCore(t *testing.T) {
	e := newTestEngine(1)
	var busyEnd int64
	e.Spawn(0, "idler", 0, func(p *Proc) { p.Idle(1000) })
	e.Spawn(0, "worker", 0, func(p *Proc) { p.Advance(100); busyEnd = p.Now() })
	e.Run()
	if busyEnd != 100 {
		t.Errorf("worker finished at %d despite idler; want 100", busyEnd)
	}
}

func TestBlockAndWake(t *testing.T) {
	e := newTestEngine(2)
	var waiter *Proc
	var wokeAt int64
	waiter = e.Spawn(0, "waiter", 0, func(p *Proc) {
		wokeAt = p.Block()
	})
	e.Spawn(1, "waker", 0, func(p *Proc) {
		p.Advance(500)
		waiter.Wake(p.Now())
	})
	e.Run()
	if wokeAt != 500 {
		t.Errorf("waiter woke at %d, want 500", wokeAt)
	}
}

func TestWakeNonBlockedPanics(t *testing.T) {
	e := newTestEngine(2)
	a := e.Spawn(0, "a", 0, func(p *Proc) { p.Advance(10) })
	e.Spawn(1, "b", 0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wake of runnable proc did not panic")
			}
		}()
		a.Wake(p.Now())
	})
	e.Run()
}

func TestDeadlockPanics(t *testing.T) {
	e := newTestEngine(1)
	e.Spawn(0, "stuck", 0, func(p *Proc) { p.Block() })
	defer func() {
		if recover() == nil {
			t.Error("deadlocked Run did not panic")
		}
	}()
	e.Run()
}

func TestSpawnFromProc(t *testing.T) {
	e := newTestEngine(2)
	var childDone int64
	e.Spawn(0, "parent", 0, func(p *Proc) {
		p.Advance(100)
		p.Engine().Spawn(1, "child", p.Now(), func(c *Proc) {
			c.Advance(50)
			childDone = c.Now()
		})
		p.Advance(10)
	})
	e.Run()
	if childDone != 150 {
		t.Errorf("child finished at %d, want 150", childDone)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := newTestEngine(4)
		res := NewResource("dev")
		var order []int64
		for c := 0; c < 4; c++ {
			c := c
			e.Spawn(c, "p", int64(c), func(p *Proc) {
				for i := 0; i < 10; i++ {
					p.Advance(int64(10 + p.Engine().Rand.Intn(20)))
					res.Use(p, 5)
					order = append(order, p.Now())
				}
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs produced different event counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	e := newTestEngine(4)
	res := NewResource("nic")
	ends := make([]int64, 4)
	for c := 0; c < 4; c++ {
		c := c
		e.Spawn(c, "p", 0, func(p *Proc) {
			res.Use(p, 100)
			ends[c] = p.Now()
		})
	}
	e.Run()
	seen := map[int64]bool{}
	var maxEnd int64
	for _, end := range ends {
		if seen[end] {
			t.Errorf("two uses completed at the same time %d", end)
		}
		seen[end] = true
		maxEnd = max64(maxEnd, end)
	}
	if maxEnd != 400 {
		t.Errorf("last completion at %d, want 400", maxEnd)
	}
	if res.Uses() != 4 || res.BusyCycles() != 400 {
		t.Errorf("resource stats = %d uses, %d busy; want 4, 400", res.Uses(), res.BusyCycles())
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := newTestEngine(1)
	e.Spawn(0, "p", 0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Advance did not panic")
			}
		}()
		p.Advance(-1)
	})
	e.Run()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
