// Package kernel assembles the simulated kernel: the 16-fix configuration
// (Figure 1 of the paper), the subsystem instances, and the engine that
// runs workloads against them. A Kernel with Stock() config reproduces
// Linux 2.6.35-rc5's scalability bottlenecks; PK() applies all of the
// paper's fixes.
package kernel

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vfs"
)

// Config is the kernel configuration: the switches of each subsystem the
// kernel assembles. A Figure 1 fix is one field of one of these configs
// plus the Fixes row that points at it.
type Config struct {
	VFS vfs.Config
	Net netsim.Config
	MM  mm.Config
}

// Stock returns the unmodified Linux 2.6.35-rc5 configuration.
func Stock() Config { return Config{} }

// PK returns the patched kernel: every Fixes row enabled.
func PK() Config { return pk }

// pk is built once: a config set through Fix.Flag escapes to the heap, so
// building it per PK call would allocate.
var pk = func() (c Config) {
	for _, f := range Fixes {
		*f.Flag(&c) = true
	}
	return c
}()

// Kernel is one booted simulated machine: engine, memory model, and kernel
// subsystems, ready to run a workload.
type Kernel struct {
	Cfg     Config
	Machine *topo.Machine
	Engine  *sim.Engine
	MD      *mem.Model
	Alloc   *mm.Allocator
	FS      *vfs.FS
	Procs   *proc.Table
	Pages   *mm.PageStructs
	// DRAM is the NUMA memory system: one queued controller per chip,
	// each with that chip's share of the machine's aggregate rate, joined
	// by the finite-rate HyperTransport link ring. Apps route bulk
	// transfers by home chip (DRAM.Transfer / TransferLocal), by policy
	// (DRAM.TransferPlaced), or grab a single chip's handle with DRAM.Chip;
	// cross-chip transfers queue on every link of their route.
	DRAM *mem.Controllers
	// Faults is the compiled fault plan this kernel booted under (nil for
	// a healthy machine).
	Faults *fault.Plan
	// NetFaults is the live NIC fault state every stack this kernel
	// creates consults; timed plan events mutate it mid-run. Never nil.
	NetFaults *fault.NetFaults

	online []bool // per enabled core; nil means all online
}

// New boots a kernel on the given machine with a deterministic seed.
func New(m *topo.Machine, cfg Config, seed uint64) *Kernel {
	return NewOnEngine(sim.NewEngine(m, seed), cfg, nil, nil)
}

// NewOnEngine boots a kernel on an existing engine — typically one a sweep
// worker has just Reset for reuse, so the engine's parked proc coroutines
// carry over while every kernel subsystem (memory model, VFS, DRAM
// controllers, page structs) is rebuilt for this run. The caller is
// responsible for the engine being in its post-NewEngine/Reset state.
//
// plan is a compiled fault plan, nil for a healthy machine. Boot-time
// events (link/controller throttles, dead-link rerouting, offlined cores,
// NIC drop/dup probabilities) are applied before the workload starts, and
// timed events are injected by a zero-footprint injector proc at their
// simulated timestamps. It panics on a plan that offlines every enabled
// core — compile-time validation catches this for the full machine, but
// a narrower sweep point can still hit it, and the harness's crash
// isolation turns the panic into a failed point.
//
// A non-nil spare is the free list the memory model takes its directory
// pages from (see mem.NewModelOn); a sweep worker passes the pages its
// earlier points released. It changes where pages come from, never what
// the kernel charges.
func NewOnEngine(e *sim.Engine, cfg Config, plan *fault.Plan, spare *mem.PageList) *Kernel {
	m := e.Machine
	md := mem.NewModelOn(m, spare)
	alloc := mm.NewAllocator(md)
	k := &Kernel{
		Cfg:       cfg,
		Machine:   m,
		Engine:    e,
		MD:        md,
		Alloc:     alloc,
		FS:        vfs.New(md, alloc, cfg.VFS),
		Pages:     mm.NewPageStructs(md, costs.pageStructSample, cfg.MM.PageFalseSharingFix),
		DRAM:      mem.NewControllersFor(m),
		Faults:    plan,
		NetFaults: &fault.NetFaults{},
	}
	k.Procs = proc.NewTable(md, k.Pages)
	if plan != nil {
		k.applyBootFaults(plan)
	}
	return k
}

// applyBootFaults applies the plan's t=0 state and arms the injector for
// timed events.
func (k *Kernel) applyBootFaults(plan *fault.Plan) {
	n := k.Machine.NCores
	offline := 0
	for c := 0; c < n; c++ {
		if plan.CoreOffline(c) {
			if k.online == nil {
				k.online = make([]bool, n)
				for i := range k.online {
					k.online[i] = true
				}
			}
			k.online[c] = false
			offline++
		}
	}
	if offline == n {
		panic(fmt.Sprintf("kernel: fault plan offlines all %d enabled cores", n))
	}
	if plan.BootRoutes != nil {
		k.DRAM.SetRoutes(plan.BootRoutes)
	}
	k.applyFaultEvents(plan.Boot)
	if len(plan.Steps) > 0 {
		// The injector proc sleeps to each step's timestamp and applies
		// it. It spawns on the first online core but only ever idles, so
		// it occupies no core time; it does extend the run to the last
		// step's timestamp if the workload finishes first, which keeps
		// "the fault fired" observable in the wall clock.
		steps := plan.Steps
		k.Engine.Spawn(k.FirstOnline(), "fault-injector", 0, func(p *sim.Proc) {
			i := 0
			for {
				for ; i < len(steps) && steps[i].AtCycles <= p.Now(); i++ {
					if steps[i].Routes != nil {
						k.DRAM.SetRoutes(steps[i].Routes)
					}
					k.applyFaultEvents(steps[i].Events)
				}
				if i == len(steps) {
					return
				}
				p.IdleUntil(steps[i].AtCycles)
			}
		})
	}
}

// applyFaultEvents applies rate and NIC events (core events are folded
// into the boot-time online map; route swaps are handled by the caller).
func (k *Kernel) applyFaultEvents(evs []fault.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case fault.KindLink:
			if ev.Frac > 0 {
				l, ok := k.Machine.LinkBetween(ev.A, ev.B)
				if !ok {
					panic(fmt.Sprintf("kernel: no link %d-%d on %s", ev.A, ev.B, k.Machine.Name)) // compile validated; unreachable
				}
				k.DRAM.ScaleLink(l, ev.Frac)
			}
			// A dead link (Frac == 0) is purely a routing change.
		case fault.KindDRAM:
			k.DRAM.ScaleController(ev.A, ev.Frac)
		case fault.KindDrop:
			k.NetFaults.Drop = ev.Frac
		case fault.KindDup:
			k.NetFaults.Dup = ev.Frac
		}
	}
}

// Online reports whether enabled core c is online (not offlined by the
// fault plan). Workloads spawn workers only on online cores.
func (k *Kernel) Online(c int) bool {
	return k.online == nil || k.online[c]
}

// FirstOnline returns the lowest-numbered online core.
func (k *Kernel) FirstOnline() int {
	for c := 0; c < k.Machine.NCores; c++ {
		if k.Online(c) {
			return c
		}
	}
	panic("kernel: no online cores") // applyBootFaults guarantees one
}

// DRAMUtilization returns each chip's controller busy fraction over the
// run so far (reported by the harness next to throughput).
func (k *Kernel) DRAMUtilization() []float64 { return k.DRAM.Utilization(k.Engine.Now()) }

// LinkUtilization returns each HyperTransport link's busy fraction over
// the run so far (reported by the harness next to DRAMUtilization).
func (k *Kernel) LinkUtilization() []float64 { return k.DRAM.LinkUtilization(k.Engine.Now()) }

// NewStack creates a network stack on this kernel. nic may be nil for
// loopback-only workloads. The stack charges device DMA payload bandwidth
// against the kernel's memory system (links + home controller) and
// consults the kernel's live NIC fault state per packet.
func (k *Kernel) NewStack(nic *netsim.NIC) *netsim.Stack {
	s := netsim.NewStack(k.MD, k.FS, nic, k.DRAM, k.Cfg.Net)
	s.SetFaults(k.NetFaults)
	return s
}

// NewAddressSpace creates a process address space homed on the given chip.
func (k *Kernel) NewAddressSpace(homeChip int) *mm.AddressSpace {
	return mm.NewAddressSpace(k.MD, k.Alloc, k.Cfg.MM, homeChip)
}
