package mm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

func setup(cores int) (*sim.Engine, *mem.Model, *Allocator) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	return sim.NewEngine(m, 1), md, NewAllocator(md)
}

func TestAllocatorTracksCounts(t *testing.T) {
	e, _, a := setup(2)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		a.AllocPages(p, 0, 10)
		a.FreePages(p, 0, 4)
	})
	e.Run()
	if a.Allocated(0) != 10 {
		t.Errorf("allocated = %d, want 10", a.Allocated(0))
	}
}

func TestNode0ContentionVsLocal(t *testing.T) {
	// All cores hammering node 0 (the stock DMA-buffer policy) must be
	// much slower than each core using its local node (§5.3's ~30%).
	run := func(local bool) int64 {
		e, _, a := setup(48)
		const allocs = 50
		for c := 0; c < 48; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				node := 0
				if local {
					node = p.Chip()
				}
				for i := 0; i < allocs; i++ {
					a.AllocPages(p, node, 1)
					p.Advance(500) // packet work between allocations
					a.FreePages(p, node, 1)
				}
			})
		}
		e.Run()
		return e.Now()
	}
	node0, local := run(false), run(true)
	if node0 < local*3/2 {
		t.Errorf("node-0 policy %d cycles vs local %d; want clear contention penalty", node0, local)
	}
}

func TestMmapFaultPopulates(t *testing.T) {
	e, md, a := setup(1)
	as := NewAddressSpace(md, a, Config{}, 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		r := as.Mmap(p, 1<<20, false)
		for i := int64(0); i < r.Pages(); i++ {
			as.Fault(p, r, nil)
		}
		if r.Faulted != 256 { // 1 MB / 4 KB
			t.Errorf("faulted pages = %d, want 256", r.Faulted)
		}
		as.Munmap(p, r)
	})
	e.Run()
	if as.Regions() != 0 {
		t.Errorf("regions after munmap = %d, want 0", as.Regions())
	}
}

func TestSharedASFaultsContendOnRegionLock(t *testing.T) {
	// Threads in one address space (pedsort threads / Metis) contend on
	// mmap_sem even for read-mode fault acquisitions.
	run := func(shared bool) int64 {
		e, md, a := setup(48)
		var global *AddressSpace
		if shared {
			global = NewAddressSpace(md, a, Config{}, 0)
		}
		const faults = 30
		for c := 0; c < 48; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				as := global
				if as == nil {
					as = NewAddressSpace(md, a, Config{}, p.Chip())
				}
				r := as.Mmap(p, faults*PageBytes, false)
				for i := 0; i < faults; i++ {
					as.Fault(p, r, nil)
					p.Advance(2000) // app work between faults
				}
			})
		}
		e.Run()
		return e.Now()
	}
	shared, private := run(true), run(false)
	if shared < private*11/10 {
		t.Errorf("shared AS %d cycles vs private %d; want visible mmap_sem penalty", shared, private)
	}
}

func TestSuperPageMutexSerializesStock(t *testing.T) {
	// Stock: one mutex for all super-page faults in a process. PK: one
	// per mapping. Concurrent faults on different mappings should be much
	// faster with the per-mapping mutex.
	run := func(cfg Config) int64 {
		e, md, a := setup(24)
		as := NewAddressSpace(md, a, cfg, 0)
		regions := make([]*Region, 24)
		setupEng := sim.NewEngine(topo.New(1), 9)
		setupEng.Spawn(0, "setup", 0, func(p *sim.Proc) {
			for i := range regions {
				regions[i] = as.Mmap(p, 8*SuperPageBytes, true)
			}
		})
		setupEng.Run()
		for c := 0; c < 24; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for i := int64(0); i < 8; i++ {
					as.Fault(p, regions[c], nil)
				}
			})
		}
		e.Run()
		return e.Now()
	}
	stock := run(Config{NoncachingSuperPageZero: true})
	pk := run(Config{NoncachingSuperPageZero: true, PerMappingSuperPageMutex: true})
	if stock < pk*3/2 {
		t.Errorf("single super-page mutex %d cycles vs per-mapping %d; want serialization", stock, pk)
	}
}

func TestNoncachingZeroIsCheaper(t *testing.T) {
	run := func(cfg Config) int64 {
		e, md, a := setup(1)
		as := NewAddressSpace(md, a, cfg, 0)
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			r := as.Mmap(p, 4*SuperPageBytes, true)
			for i := 0; i < 4; i++ {
				as.Fault(p, r, nil)
			}
		})
		e.Run()
		return e.Now()
	}
	caching := run(Config{})
	noncaching := run(Config{NoncachingSuperPageZero: true})
	if caching <= noncaching {
		t.Errorf("caching zero %d cycles <= non-caching %d; caching must cost more", caching, noncaching)
	}
}

func TestPageStructFalseSharing(t *testing.T) {
	// The cost of false sharing lands on the *readers* of the read-mostly
	// field: writers invalidate their cached flags words. Measure the
	// busy cycles of the reader cores only.
	run := func(padded bool) int64 {
		m := topo.New(48)
		e := sim.NewEngine(m, 1)
		md := mem.NewModel(m)
		ps := NewPageStructs(md, 64, padded)
		for c := 0; c < 48; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for i := 0; i < 500; i++ {
					if c%2 == 0 {
						ps.Touch(p, md, i) // writer path (fork/COW)
					} else {
						// Reader path: a fault handler reads the flags.
						p.Advance(md.Read(p.Core(), ps.FlagsLine(i), p.Now()))
					}
				}
			})
		}
		e.Run()
		var readerCycles int64
		for c := 1; c < 48; c += 2 {
			readerCycles += e.SysCycles(c)
		}
		return readerCycles
	}
	stock, pk := run(false), run(true)
	if stock < pk*2 {
		t.Errorf("false-shared reader cycles %d vs padded %d; want clear penalty", stock, pk)
	}
}

func TestFaultChargesLocalController(t *testing.T) {
	e, md, a := setup(1)
	as := NewAddressSpace(md, a, Config{NoncachingSuperPageZero: true}, 0)
	dram := mem.NewControllersFor(topo.Default())
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		r := as.Mmap(p, SuperPageBytes, true)
		as.Fault(p, r, dram)
	})
	e.Run()
	if got := dram.Chip(0).BytesRequested(); got != SuperPageBytes {
		t.Errorf("local controller charged %d bytes, want %d", got, SuperPageBytes)
	}
	if got := dram.BytesRequested(); got != SuperPageBytes {
		t.Errorf("aggregate bytes = %d; fault traffic must not hit remote controllers", got)
	}
}

func TestRegionPageMath(t *testing.T) {
	r := &Region{Bytes: 3 * SuperPageBytes, Huge: true}
	if r.Pages() != 3 {
		t.Errorf("huge region pages = %d, want 3", r.Pages())
	}
	r2 := &Region{Bytes: PageBytes + 1}
	if r2.Pages() != 2 {
		t.Errorf("partial page region pages = %d, want 2", r2.Pages())
	}
}
