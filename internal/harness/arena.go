package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// engineSlot owns one reusable simulation engine for a sweep worker. Each
// point the worker runs resets the engine (ResetFor handles the changing
// core count) instead of building a new one, so the engine's parked proc
// coroutines, core arrays, and heap storage carry across the whole grid.
//
// The generation counter exists for the watchdog in isolate.go: a point
// that wedges past its deadline is abandoned on its goroutine, which may
// still be blocked inside the slot's engine. abandon() disowns that engine
// and bumps the generation, so the worker's next point builds a fresh one
// while any late engine() call from the abandoned goroutine (whose Options
// pinned the old generation) gets a throwaway engine instead of racing the
// new owner.
type engineSlot struct {
	mu  sync.Mutex
	gen uint64
	eng *sim.Engine
}

// generation returns the slot's current generation; Options pin it so a
// later abandon() cuts stale holders off.
func (s *engineSlot) generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// engine returns the slot's engine, reset for the given machine and seed.
// A caller whose pinned generation is stale (its point was abandoned by
// the watchdog) gets a throwaway non-pooled engine: its result will be
// discarded anyway, and it must not touch the engine the slot's current
// owner is using.
func (s *engineSlot) engine(gen uint64, m *topo.Machine, seed uint64) *sim.Engine {
	s.mu.Lock()
	if gen != s.gen {
		s.mu.Unlock()
		return sim.NewEngine(m, seed)
	}
	if s.eng == nil {
		s.eng = sim.NewPooledEngine(m, seed)
	} else {
		s.eng.ResetFor(m, seed)
	}
	e := s.eng
	s.mu.Unlock()
	return e
}

// abandon disowns the slot's engine without closing it — the wedged
// point's goroutine may still be running inside it, so Close could hang.
// The engine (and that goroutine) leak, deliberately: this only runs when
// a point has already blown its wall-clock deadline.
func (s *engineSlot) abandon() {
	s.mu.Lock()
	s.gen++
	s.eng = nil
	s.mu.Unlock()
}

// engineArena is the process-wide sync.Pool-style arena the sweep workers
// draw engine slots from: a 48-point x N-variant grid reuses at most
// GOMAXPROCS engines in total. Unlike a real sync.Pool the arena never
// lets the GC drop a slot silently — an engine holds parked coroutines, so
// slots beyond the cap are Closed explicitly when returned.
type engineArena struct {
	mu   sync.Mutex
	free []*engineSlot
}

var arena engineArena

func (a *engineArena) get() *engineSlot {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	return &engineSlot{}
}

func (a *engineArena) put(s *engineSlot) {
	a.mu.Lock()
	if len(a.free) < runtime.GOMAXPROCS(0) {
		a.free = append(a.free, s)
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	s.mu.Lock()
	eng := s.eng
	s.eng = nil
	s.mu.Unlock()
	if eng != nil {
		eng.Close()
	}
}

// newEngine returns the engine for one sweep point: the calling worker's
// pooled engine (reset to the machine and the run's seed) when the arena
// is active, or a fresh engine when it is not (Options.fresh, or a caller
// outside fanOut).
func (o Options) newEngine(m *topo.Machine) *sim.Engine {
	if o.fresh || o.slot == nil {
		return sim.NewEngine(m, o.seed())
	}
	return o.slot.engine(o.slotGen, m, o.seed())
}

// newKernel boots a kernel for one sweep point on o.newEngine's engine,
// applying o.Fault when set. A spec that does not compile for this point's
// core count panics; under the guarded sweep that surfaces as one failed
// point rather than killing the run.
func (o Options) newKernel(m *topo.Machine, cfg kernel.Config) *kernel.Kernel {
	e := o.newEngine(m)
	if o.Fault == nil || o.Fault.IsZero() {
		return kernel.NewOnEngine(e, cfg)
	}
	plan, err := o.Fault.CompileFor(m, m.NCores)
	if err != nil {
		panic(fmt.Sprintf("harness: fault spec %q: %v", o.Fault, err))
	}
	return kernel.NewOnEngineFaults(e, cfg, plan)
}
