package harness

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

// engineSlot owns one reusable simulation engine for a sweep worker. Each
// point the worker runs resets the engine (ResetFor handles the changing
// core count) instead of building a new one, so the engine's parked proc
// coroutines, core arrays, and heap storage carry across the worker's
// points. The worker makes the slot at its first cache miss and closes it
// when the sweep ends.
//
// A slot has one owner at a time, so it needs no lock. Normally that is
// the fanOut worker that made it. When a point wedges past the watchdog,
// the worker leaves the slot with the wedged body (which may still be
// blocked inside its engine, or unwedge and boot another kernel on it)
// and makes a new slot for its next miss; the body closes the old slot's
// engine if it ever returns (see runGuarded).
//
// The slot also keeps the worker's free list of directory pages (spare),
// made when the worker boots its first kernel: each point's memory model
// draws on it, and once the point returns a result the worker gives those
// models' pages back (endPoint). The list dies with the slot, so a
// sweep's pages never outlive it.
type engineSlot struct {
	eng *sim.Engine

	spare  *mem.PageList
	booted []*mem.Model // models the current point built on spare
}

// engine returns the slot's engine, reset for the given machine and seed.
func (s *engineSlot) engine(m *topo.Machine, seed uint64) *sim.Engine {
	if s.eng == nil {
		s.eng = sim.NewPooledEngine(m, seed)
	} else {
		s.eng.ResetFor(m, seed)
	}
	return s.eng
}

// kernel boots a kernel on the slot's engine (see engine) whose memory
// model draws on the worker's page list.
func (s *engineSlot) kernel(m *topo.Machine, seed uint64, cfg kernel.Config, plan *fault.Plan) *kernel.Kernel {
	if s.spare == nil {
		s.spare = new(mem.PageList)
	}
	k := kernel.NewOnEngine(s.engine(m, seed), cfg, plan, s.spare)
	s.booted = append(s.booted, k.MD)
	return k
}

// endPoint closes the worker's current point. With recycle set (the point
// returned a result) the pages of every model it built go back to the
// worker's list; otherwise they are left to the garbage collector, since a
// point that panicked may have left its models in any state.
func (s *engineSlot) endPoint(recycle bool) {
	if recycle {
		for _, md := range s.booted {
			md.Release()
		}
	}
	clear(s.booted)
	s.booted = s.booted[:0]
}

// close stops the engine's parked coroutines once the worker's sweep is
// done. A nil slot (a worker that never missed) is a no-op.
func (s *engineSlot) close() {
	if s != nil && s.eng != nil {
		s.eng.Close()
	}
}

// newEngine returns the engine for one sweep point: the calling worker's
// pooled engine, reset to the machine and the run's seed, or a fresh
// engine when the point has no slot (Options.fresh, or a caller outside
// fanOut).
func (o Options) newEngine(m *topo.Machine) *sim.Engine {
	if o.slot == nil {
		return sim.NewEngine(m, o.seed())
	}
	return o.slot.engine(m, o.seed())
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
	if o.slot == nil {
		return kernel.NewOnEngine(sim.NewEngine(m, o.seed()), cfg, plan, nil)
	}
	return o.slot.kernel(m, o.seed(), cfg, plan)
}
