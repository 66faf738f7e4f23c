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

// Config holds one boolean per kernel change in Figure 1.
type Config struct {
	// §4.2 — user per-core backlog queues for listening sockets.
	ParallelAccept bool
	// §4.3 — sloppy counters for dentry reference counts.
	SloppyDentryRef bool
	// §4.3 — sloppy counters for mount-point (vfsmount) objects.
	SloppyVfsmountRef bool
	// §4.3 — sloppy counters for IP routing table entries (dst_entry).
	SloppyDstRef bool
	// §4.3 — sloppy counters for protocol memory usage tracking.
	SloppyProtoMem bool
	// §4.4 — lock-free protocol in dlookup for filename matches.
	LockFreeDlookup bool
	// §4.5 — per-core mount table caches.
	PerCoreMountCache bool
	// §4.5 — per-core open-file lists per super block.
	PerCoreOpenList bool
	// §4.5/§5.3 — allocate Ethernet DMA buffers from the local node.
	LocalDMABuf bool
	// §4.6 — place read-only net_device/device fields on own lines.
	NetDevFalseSharingFix bool
	// §4.6 — place read-only page fields on their own cache lines.
	PageFalseSharingFix bool
	// §4.7 — avoid the global inode-list locks when not necessary.
	InodeListAvoidLock bool
	// §4.7 — avoid the global dcache-list locks when not necessary.
	DcacheListAvoidLock bool
	// §4.7/§5.5 — atomic reads instead of the per-inode mutex in lseek.
	AtomicLseek bool
	// §4.7/§5.8 — one mutex per super-page mapping instead of one global.
	PerMappingSuperPageMutex bool
	// §4.7/§5.8 — zero super-pages with non-caching instructions.
	NoncachingSuperPageZero bool

	// ScalableMountLock is NOT one of the paper's 16 fixes: it swaps the
	// mount table's ticket lock for an MCS queue lock, for the
	// "scalable-locks" experiment contrasting better locks with the
	// paper's data refactoring.
	ScalableMountLock bool
}

// Stock returns the unmodified Linux 2.6.35-rc5 configuration.
func Stock() Config { return Config{} }

// PK returns the patched kernel: all 16 fixes applied.
func PK() Config {
	return Config{
		ParallelAccept:           true,
		SloppyDentryRef:          true,
		SloppyVfsmountRef:        true,
		SloppyDstRef:             true,
		SloppyProtoMem:           true,
		LockFreeDlookup:          true,
		PerCoreMountCache:        true,
		PerCoreOpenList:          true,
		LocalDMABuf:              true,
		NetDevFalseSharingFix:    true,
		PageFalseSharingFix:      true,
		InodeListAvoidLock:       true,
		DcacheListAvoidLock:      true,
		AtomicLseek:              true,
		PerMappingSuperPageMutex: true,
		NoncachingSuperPageZero:  true,
	}
}

// VFS projects the VFS-relevant flags.
func (c Config) VFS() vfs.Config {
	return vfs.Config{
		SloppyDentryRef:     c.SloppyDentryRef,
		SloppyVfsmountRef:   c.SloppyVfsmountRef,
		LockFreeDlookup:     c.LockFreeDlookup,
		PerCoreMountCache:   c.PerCoreMountCache,
		PerCoreOpenList:     c.PerCoreOpenList,
		InodeListAvoidLock:  c.InodeListAvoidLock,
		DcacheListAvoidLock: c.DcacheListAvoidLock,
		AtomicLseek:         c.AtomicLseek,
		ScalableMountLock:   c.ScalableMountLock,
	}
}

// Net projects the network-stack flags.
func (c Config) Net() netsim.Config {
	return netsim.Config{
		ParallelAccept:        c.ParallelAccept,
		SloppyDstRef:          c.SloppyDstRef,
		SloppyProtoMem:        c.SloppyProtoMem,
		LocalDMABuf:           c.LocalDMABuf,
		NetDevFalseSharingFix: c.NetDevFalseSharingFix,
	}
}

// MM projects the memory-management flags.
func (c Config) MM() mm.Config {
	return mm.Config{
		PerMappingSuperPageMutex: c.PerMappingSuperPageMutex,
		NoncachingSuperPageZero:  c.NoncachingSuperPageZero,
		PageFalseSharingFix:      c.PageFalseSharingFix,
	}
}

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
	// (DRAM.TransferPlaced), or grab a single chip's handle with DRAMFor;
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

// pageStructSample is the number of page structs modeled for false-sharing
// purposes; enough to spread across chips without dominating memory.
const pageStructSample = 256

// New boots a kernel on the given machine with a deterministic seed.
func New(m *topo.Machine, cfg Config, seed uint64) *Kernel {
	return NewOnEngine(sim.NewEngine(m, seed), cfg, nil, nil)
}

// NewOnEngine boots a kernel on an existing engine — typically one a sweep
// arena has just Reset for reuse, so the engine's parked proc coroutines
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
		FS:        vfs.New(md, alloc, cfg.VFS()),
		Pages:     mm.NewPageStructs(md, pageStructSample, cfg.PageFalseSharingFix),
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

// OnlineCores returns how many of the machine's enabled cores are online.
func (k *Kernel) OnlineCores() int {
	if k.online == nil {
		return k.Machine.NCores
	}
	n := 0
	for _, up := range k.online {
		if up {
			n++
		}
	}
	return n
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

// DRAMFor returns the memory controller serving the given chip's DRAM.
func (k *Kernel) DRAMFor(chip int) *mem.Controller { return k.DRAM.Chip(chip) }

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
	s := netsim.NewStack(k.MD, k.FS, nic, k.DRAM, k.Cfg.Net())
	s.SetFaults(k.NetFaults)
	return s
}

// NewAddressSpace creates a process address space homed on the given chip.
func (k *Kernel) NewAddressSpace(homeChip int) *mm.AddressSpace {
	return mm.NewAddressSpace(k.MD, k.Alloc, k.Cfg.MM(), homeChip)
}
