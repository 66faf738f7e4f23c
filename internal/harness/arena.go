package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
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
//
// While a fanOut worker holds the slot, it also keeps the worker's free
// list of directory pages (spare), made when the worker boots its first
// kernel: each point's memory model draws on it, and once the point
// returns a result the worker gives those models' pages back (endPoint).
// The list lives for one sweep: the arena drops it when the slot comes
// back, so a sweep's pages never outlive it.
type engineSlot struct {
	mu  sync.Mutex
	gen uint64
	eng *sim.Engine

	spare  *mem.PageList
	booted []*mem.Model // models the current point built on spare
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
	defer s.mu.Unlock()
	return s.engineLocked(gen, m, seed)
}

func (s *engineSlot) engineLocked(gen uint64, m *topo.Machine, seed uint64) *sim.Engine {
	if gen != s.gen {
		return sim.NewEngine(m, seed)
	}
	if s.eng == nil {
		s.eng = sim.NewPooledEngine(m, seed)
	} else {
		s.eng.ResetFor(m, seed)
	}
	return s.eng
}

// kernel boots a kernel on the slot's engine (see engine) whose memory
// model draws on the worker's page list. A stale caller gets a fresh
// engine and a model that allocates every page.
func (s *engineSlot) kernel(gen uint64, m *topo.Machine, seed uint64, cfg kernel.Config, plan *fault.Plan) *kernel.Kernel {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.engineLocked(gen, m, seed)
	if gen != s.gen {
		return kernel.NewOnEngine(e, cfg, plan, nil)
	}
	if s.spare == nil {
		s.spare = new(mem.PageList)
	}
	k := kernel.NewOnEngine(e, cfg, plan, s.spare)
	s.booted = append(s.booted, k.MD)
	return k
}

// endPoint closes the worker's current point. With recycle set (the point
// returned a result) the pages of every model it built go back to the
// worker's list; otherwise they are left to the garbage collector, since a
// point that panicked may have left its models in any state.
func (s *engineSlot) endPoint(recycle bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if recycle {
		for _, md := range s.booted {
			md.Release()
		}
	}
	clear(s.booted)
	s.booted = s.booted[:0]
}

// abandon disowns the slot's engine without closing it — the wedged
// point's goroutine may still be running inside it, so Close could hang.
// The engine (and that goroutine) leak, deliberately: this only runs when
// a point has already blown its wall-clock deadline. The wedged point may
// still be drawing on the worker's page list, so the list goes with it.
func (s *engineSlot) abandon() {
	s.mu.Lock()
	s.gen++
	s.eng = nil
	s.spare = nil
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

// put takes a slot back from a worker whose sweep is done and drops the
// worker's page list.
func (a *engineArena) put(s *engineSlot) {
	s.mu.Lock()
	s.spare = nil
	s.mu.Unlock()
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

// newKernel boots a kernel for one sweep point on the engine o.newEngine
// would return, applying o.Fault when set. In a fanOut worker the
// kernel's memory model also draws on the worker's page list. A spec that
// does not compile for this point's core count panics; under the guarded
// sweep that surfaces as one failed point rather than killing the run.
func (o Options) newKernel(m *topo.Machine, cfg kernel.Config) *kernel.Kernel {
	var plan *fault.Plan
	if o.Fault != nil && !o.Fault.IsZero() {
		var err error
		if plan, err = o.Fault.CompileFor(m, m.NCores); err != nil {
			panic(fmt.Sprintf("harness: fault spec %q: %v", o.Fault, err))
		}
	}
	if o.fresh || o.slot == nil {
		return kernel.NewOnEngine(sim.NewEngine(m, o.seed()), cfg, plan, nil)
	}
	return o.slot.kernel(o.slotGen, m, o.seed(), cfg, plan)
}
