package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/topo"
)

// traceRun executes a deterministic contended scenario on e and returns
// the event trace. The scenario mixes Advance, Idle, Block/Wake, PRNG
// draws, and mid-run Spawn so it exercises every scheduling path.
func traceRun(e *Engine) []int64 {
	var order []int64
	var waiter *Proc
	waiter = e.Spawn(0, "waiter", 0, func(p *Proc) {
		order = append(order, -p.Block())
	})
	for c := 0; c < e.Machine.NCores; c++ {
		c := c
		e.Spawn(c%e.Machine.NCores, "worker", int64(c), func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.Advance(int64(5 + p.Engine().Rand.Intn(30)))
				p.Idle(int64(p.Engine().Rand.Intn(7)))
				order = append(order, p.Now())
			}
			if c == 1 {
				p.Engine().Spawn(0, "child", p.Now(), func(cp *Proc) {
					cp.Advance(25)
					order = append(order, cp.Now())
				})
			}
			if c == e.Machine.NCores-1 {
				waiter.Wake(p.Now())
			}
		})
	}
	e.Run()
	return order
}

func diffTraces(t *testing.T, label string, want, got []int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: diverged at event %d: got %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestResetProducesIdenticalRuns is the engine-level reuse determinism
// guarantee: an engine reset between runs replays a scenario bit-for-bit
// identically to a fresh engine with the same seed — even when the reused
// engine previously ran a different machine shape and a different seed.
func TestResetProducesIdenticalRuns(t *testing.T) {
	fresh := traceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(2), 7)
	traceRun(e) // unrelated prior run to dirty every piece of state
	e.ResetFor(topo.New(4), 42)
	reused := traceRun(e)

	if len(fresh) != len(reused) {
		t.Fatalf("fresh run has %d events, reused %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("runs diverged at event %d: fresh %d, reused %d", i, fresh[i], reused[i])
		}
	}

	// Reset alone (same machine) must also replay identically.
	e.Reset(42)
	again := traceRun(e)
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("Reset run diverged at event %d: fresh %d, reused %d", i, fresh[i], again[i])
		}
	}
}

// TestSpawnReusesParkedGoroutines verifies the free list works: a second
// run on a reused engine resumes parked goroutines instead of starting new
// ones.
func TestSpawnReusesParkedGoroutines(t *testing.T) {
	e := NewPooledEngine(topo.New(4), 1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
	}
	e.Run()
	if got := e.NumParked(); got != 4 {
		t.Fatalf("after run: %d parked procs, want 4", got)
	}

	before := runtime.NumGoroutine()
	e.Reset(1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
	}
	if got := e.NumParked(); got != 0 {
		t.Fatalf("respawn left %d procs parked, want 0 (all reused)", got)
	}
	e.Run()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("second run grew goroutines from %d to %d; spawns should reuse parked ones", before, after)
	}
	e.Close()
}

// TestSpawnReuseWithinRun verifies a proc slot freed mid-run is reused by
// a later Spawn in the same run without disturbing results.
func TestSpawnReuseWithinRun(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	var childEnd int64
	e.Spawn(0, "short", 0, func(p *Proc) { p.Advance(10) })
	e.Spawn(1, "spawner", 5, func(p *Proc) {
		p.Advance(100) // the short proc is done by now
		p.Engine().Spawn(0, "child", p.Now(), func(cp *Proc) {
			cp.Advance(7)
			childEnd = cp.Now()
		})
		p.Advance(1)
	})
	e.Run()
	if childEnd != 112 {
		t.Errorf("child finished at %d, want 112", childEnd)
	}
	// Three spawns, but the child reused the short proc's parked slot, so
	// only two distinct slots exist.
	if got := e.NumParked(); got != 2 {
		t.Errorf("parked procs = %d, want 2 slots", got)
	}
}

// TestDeadlockReportCurrentRunOnly pins the failure-path contract: a
// deadlock panic on a reused engine must name only the current run's
// procs, not slots left over from earlier runs.
func TestDeadlockReportCurrentRunOnly(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.Spawn(0, "previous-alpha", 0, func(p *Proc) { p.Advance(10) })
	e.Spawn(1, "previous-beta", 0, func(p *Proc) { p.Advance(20) })
	e.Run()

	e.Reset(1)
	e.Spawn(0, "stuck-gamma", 0, func(p *Proc) { p.Block() })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked Run did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("deadlock panic value %T, want string", r)
		}
		if !strings.Contains(msg, "stuck-gamma") {
			t.Errorf("deadlock report misses current proc: %q", msg)
		}
		if strings.Contains(msg, "previous-") {
			t.Errorf("deadlock report leaks previous run's procs: %q", msg)
		}
	}()
	e.Run()
}

// waitGoroutinesAtMost polls until the goroutine count drops to at most n
// (exited goroutines are reaped asynchronously).
func waitGoroutinesAtMost(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d, want <= %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResetAfterDeadlockReclaimsProcs is the failure-path leak check:
// Reset after a recovered deadlock panic must unwind the blocked
// goroutines back into the free list (no leaks, slots reusable), and the
// engine must then run cleanly; Close must release every parked goroutine.
func TestResetAfterDeadlockReclaimsProcs(t *testing.T) {
	before := runtime.NumGoroutine()

	e := NewPooledEngine(topo.New(4), 1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "stuck", 0, func(p *Proc) { p.Advance(5); p.Block() })
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deadlocked Run did not panic")
			}
		}()
		e.Run()
	}()

	e.Reset(1)
	if got := e.NumParked(); got != 4 {
		t.Fatalf("Reset reclaimed %d procs, want 4", got)
	}
	// The reclaimed slots must be fully reusable.
	var end int64
	for c := 0; c < 4; c++ {
		e.Spawn(c, "ok", 0, func(p *Proc) { p.Advance(30); end = max64(end, p.Now()) })
	}
	e.Run()
	if end != 30 {
		t.Errorf("post-deadlock run finished at %d, want 30", end)
	}

	// Close must drop the engine back to the pre-engine goroutine count.
	e.Close()
	if got := e.NumParked(); got != 0 {
		t.Errorf("Close left %d procs parked", got)
	}
	waitGoroutinesAtMost(t, before)
}

// TestResetNeverRunEngine covers Reset on an engine with spawned but never
// dispatched procs: their loop-top goroutines must be reclaimed too.
func TestResetNeverRunEngine(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.Spawn(0, "never-ran", 0, func(p *Proc) { p.Advance(1) })
	e.Reset(1)
	if got := e.NumParked(); got != 1 {
		t.Fatalf("Reset reclaimed %d procs, want 1", got)
	}
	var ran bool
	e.Spawn(0, "runs", 0, func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Error("proc on reset engine did not run")
	}
	e.Close()
}

// TestPlainEngineProcsExitOnDone pins the non-pooled lifecycle: a plain
// NewEngine's proc goroutines exit when their bodies finish, so dropping
// the engine without Close leaks nothing — the behavior every kernel.New
// caller outside a sweep worker's engine slot relies on. Most of these
// procs finish while nested under others (a finished proc resumes its
// successor before its coroutine can end), in a fixed order for the
// eight and a random one for the idlers.
func TestPlainEngineProcsExitOnDone(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := NewEngine(topo.New(8), 1)
		for c := 0; c < 8; c++ {
			e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
		}
		e.Run()
		if got := e.NumParked(); got != 0 {
			t.Fatalf("plain engine parked %d procs, want 0", got)
		}
		e = NewEngine(topo.New(48), uint64(i))
		spawnIdlers(e, 64, 1+i)
		e.Run()
	}
	waitGoroutinesAtMost(t, before)
}

// TestPlainEngineResetAfterDeadlock: on a plain engine, Reset after a
// recovered deadlock releases the blocked goroutines entirely (nothing is
// pooled), and the engine still runs cleanly afterwards.
func TestPlainEngineResetAfterDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(topo.New(2), 1)
	e.Spawn(0, "stuck", 0, func(p *Proc) { p.Block() })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deadlocked Run did not panic")
			}
		}()
		e.Run()
	}()
	e.Reset(1)
	if got := e.NumParked(); got != 0 {
		t.Errorf("plain Reset pooled %d procs, want 0", got)
	}
	var ran bool
	e.Spawn(0, "ok", 0, func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Error("proc on reset plain engine did not run")
	}
	waitGoroutinesAtMost(t, before)
}

// TestResetWhileRunningPanics guards the API contract.
func TestResetWhileRunningPanics(t *testing.T) {
	e := NewEngine(topo.New(1), 1)
	e.Spawn(0, "p", 0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Reset during Run did not panic")
			}
		}()
		p.Engine().Reset(1)
	})
	e.Run()
}

// TestBodyPanicReachesRunCaller pins crash isolation on the coroutine
// path: a panic in a proc body comes out of Run on the caller's goroutine
// with its original value, and after Reset the same pooled engine — whose
// panicked slot now needs a fresh coroutine — replays a scenario
// bit-for-bit identically to a fresh engine. The crasher panics while
// nested under the bystander, which resumed it when it blocked: the panic
// must not unwind the bystander's body, whose deferred function runs only
// when Reset stops it.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	fresh := traceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(4), 7)
	var unwound bool
	e.Spawn(0, "bystander", 0, func(p *Proc) {
		defer func() { unwound = true }()
		p.Advance(5)
		p.Block()
	})
	e.Spawn(1, "crasher", 0, func(p *Proc) {
		p.Advance(10)
		panic("model bug")
	})
	func() {
		defer func() {
			if r := recover(); r != "model bug" {
				t.Fatalf("Run panicked with %v, want the body's panic value", r)
			}
		}()
		e.Run()
	}()
	if unwound {
		t.Fatal("the crasher's panic unwound the bystander's body")
	}

	e.ResetFor(topo.New(4), 42)
	if !unwound {
		t.Fatal("Reset did not unwind the bystander's body")
	}
	if got := e.NumParked(); got != 2 {
		t.Fatalf("Reset reclaimed %d slots, want 2", got)
	}
	diffTraces(t, "after body panic", fresh, traceRun(e))
	e.Reset(42)
	diffTraces(t, "second rerun", fresh, traceRun(e))
	e.Close()
}

// TestPooledEngineAcrossGoroutines runs one pooled engine from two
// goroutines in turn, the way a sweep worker's engine runs each point on
// the point's own guarded goroutine: the parked coroutines are resumed from a goroutine other than the one that
// created them, and every run must still match a fresh engine.
func TestPooledEngineAcrossGoroutines(t *testing.T) {
	fresh := traceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(4), 42)
	defer e.Close()
	turns := [2]chan bool{make(chan bool), make(chan bool)}
	traces := make(chan []int64)
	for w := range turns {
		defer close(turns[w])
		go func() {
			for range turns[w] {
				e.Reset(42)
				traces <- traceRun(e)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		turns[i%2] <- true
		diffTraces(t, fmt.Sprintf("run %d (worker %d)", i, i%2), fresh, <-traces)
	}
}

// retained is what a body captures in the retention tests: a stand-in for
// the kernel a sweep point's procs close over.
type retained struct{ buf [1 << 10]byte }

// spawnHolding spawns a proc whose body captures a fresh retained object
// and returns a weak pointer to it; block makes the body wait forever.
func spawnHolding(e *Engine, block bool) weak.Pointer[retained] {
	obj := new(retained)
	e.Spawn(0, "holder", 0, func(p *Proc) {
		p.Advance(int64(obj.buf[0]) + 1)
		if block {
			p.Block()
		}
	})
	return weak.Make(obj)
}

// TestParkedSlotDropsBody checks that a pooled engine's parked proc slots
// do not pin what their finished bodies captured: once a run ends (or a
// Reset stops a blocked proc), the captured object is garbage.
func TestParkedSlotDropsBody(t *testing.T) {
	t.Run("retire", func(t *testing.T) {
		e := NewPooledEngine(topo.New(1), 1)
		defer e.Close()
		w := spawnHolding(e, false)
		e.Run()
		if e.NumParked() != 1 {
			t.Fatalf("%d parked slots after the run, want 1", e.NumParked())
		}
		runtime.GC()
		if w.Value() != nil {
			t.Error("a parked slot still holds its finished body's captures")
		}
	})
	t.Run("reset", func(t *testing.T) {
		e := NewPooledEngine(topo.New(1), 1)
		defer e.Close()
		w := spawnHolding(e, true)
		func() {
			defer func() { recover() }() // the blocked proc deadlocks Run
			e.Run()
		}()
		e.Reset(1)
		if e.NumParked() != 1 {
			t.Fatalf("%d parked slots after Reset, want 1", e.NumParked())
		}
		runtime.GC()
		if w.Value() != nil {
			t.Error("a slot Reset returned to the free list still holds its body's captures")
		}
	})
}
