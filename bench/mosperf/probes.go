package main

import (
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/slock"
	"repro/internal/topo"
)

// probe times one public function of a layer from outside, in host time
// per call. setup builds a fresh kernel (or engine) and returns the timed
// part, which makes calls calls.
type probe struct {
	name  string
	calls int
	// perUS reports microseconds per call instead of nanoseconds.
	perUS bool
	setup func(calls int) (timed func())
}

// probeBatches is how many fresh set-ups each probe times; it reports the
// median.
const probeBatches = 5

// onProc returns a function that runs body on a single proc of k's
// engine, so the timed part includes one spawn and dispatch but nothing
// else beyond the calls.
func onProc(k *kernel.Kernel, body func(p *sim.Proc)) func() {
	k.Engine.Spawn(0, "probe", 0, body)
	return k.Engine.Run
}

// probes are the layer probes, named <layer>.<function>_<unit>. Each
// serves one workload (README.md maps them), but every traced run reports
// all of them.
var probes = []probe{
	{name: "sim.advance_ns", calls: 1_000_000, setup: func(n int) func() {
		k := kernel.New(topo.New(1), kernel.PK(), 1)
		return onProc(k, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(10)
			}
		})
	}},
	// Two procs with interleaved clocks: every Advance hands the
	// dispatcher to the other proc's goroutine.
	{name: "sim.handoff_ns", calls: 200_000, setup: func(n int) func() {
		k := kernel.New(topo.New(2), kernel.PK(), 1)
		body := func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				p.Advance(10)
			}
		}
		k.Engine.Spawn(0, "a", 0, body)
		k.Engine.Spawn(1, "b", 5, body)
		return k.Engine.Run
	}},
	// One reset-spawn-run cycle of 48 goroutine procs on a pooled engine:
	// the sweep arena's per-point overhead.
	{name: "sim.spawn_run_us", calls: 200, perUS: true, setup: func(n int) func() {
		e := sim.NewPooledEngine(topo.New(48), 1)
		body := func(p *sim.Proc) { p.Advance(10) }
		return func() {
			for i := 0; i < n; i++ {
				e.Reset(1)
				for c := 0; c < 48; c++ {
					e.Spawn(c, "p", 0, body)
				}
				e.Run()
			}
			e.Close()
		}
	}},
	// A 16-line batch read of lines homed on a remote chip.
	{name: "mem.accessset_ns", calls: 200_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.PK(), 1)
		lines := k.MD.AllocN(3, 16)
		return onProc(k, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				k.MD.AccessSet(p.Core(), lines, mem.OpRead, p.Now())
			}
		})
	}},
	// An uncontended acquire/release pair.
	{name: "slock.spin_acquire_ns", calls: 500_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.Stock(), 1)
		l := slock.NewSpinLock(k.MD, "probe", 0)
		return onProc(k, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				l.Acquire(p)
				l.Release(p)
			}
		})
	}},
	// A four-component stat on the stock kernel (locked dcache compare).
	{name: "vfs.stat_ns", calls: 50_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.Stock(), 1)
		k.FS.MustCreateFile("/var/spool/probe/file", 4096)
		return onProc(k, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				k.FS.Stat(p, "/var/spool/probe/file")
			}
		})
	}},
	// One memcached-sized UDP request received and answered through the
	// NIC model.
	{name: "netsim.udp_roundtrip_ns", calls: 50_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.PK(), 1)
		stack := k.NewStack(netsim.NewNICFor(k.Machine, netsim.MemcachedNIC(), k.Machine.NCores))
		return onProc(k, func(p *sim.Proc) {
			sock := stack.NewUDPSocket(p)
			for i := 0; i < n; i++ {
				stack.RecvUDP(p, sock, 64)
				stack.SendUDP(p, sock, 64)
			}
			stack.CloseUDP(p, sock)
		})
	}},
	{name: "load.hist_record_ns", calls: 2_000_000, setup: func(n int) func() {
		var h load.Hist
		return func() {
			v := int64(1)
			for i := 0; i < n; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Record((v >> 40) & 0xfffff)
			}
		}
	}},
	{name: "load.hist_merge_ns", calls: 100_000, setup: func(n int) func() {
		var h, o load.Hist
		for v := int64(0); v < 1<<20; v += 997 {
			o.Record(v)
		}
		return func() {
			for i := 0; i < n; i++ {
				h.Merge(&o)
			}
		}
	}},
	// A 4 KB transfer from the farthest chip's controller over the links.
	{name: "mem.transfer_ns", calls: 200_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.PK(), 1)
		return onProc(k, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				k.DRAM.Transfer(p, 4, 4096)
			}
		})
	}},
	// A 32 KB transfer striped across every chip's controller.
	{name: "mem.transfer_striped_ns", calls: 50_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.PK(), 1)
		return onProc(k, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				k.DRAM.TransferStriped(p, 32<<10)
			}
		})
	}},
	// A 4 KB soft page fault: region lock, allocator, zeroing traffic.
	{name: "mm.fault_ns", calls: 100_000, setup: func(n int) func() {
		k := kernel.New(topo.New(48), kernel.PK(), 1)
		as := k.NewAddressSpace(0)
		return onProc(k, func(p *sim.Proc) {
			r := as.Mmap(p, int64(n)*mm.PageBytes, false)
			for i := 0; i < n; i++ {
				as.Fault(p, r, k.DRAM)
			}
		})
	}},
}

// runProbes times every probe and returns its median per-call cost.
func runProbes() map[string]float64 {
	out := make(map[string]float64, len(probes))
	for _, pr := range probes {
		per := make([]float64, probeBatches)
		for b := range per {
			timed := pr.setup(pr.calls)
			start := time.Now()
			timed()
			per[b] = float64(time.Since(start).Nanoseconds()) / float64(pr.calls)
		}
		sort.Float64s(per)
		v := per[probeBatches/2]
		if pr.perUS {
			v /= 1e3
		}
		out[pr.name] = v
	}
	return out
}
