// Package mm models the kernel memory-management paths the MOSBENCH
// applications stress: the per-NUMA-node physical page allocator, process
// address spaces with a region (vma) list protected by mmap_sem, soft page
// faults, 4 KB vs 2 MB super-pages, and page-struct false sharing.
//
// Paper touchpoints:
//   - §4.5/§5.3: DMA buffers allocated from memory node 0's allocator lock
//     (fixed by allocating from the local node) — the allocator here
//     exposes per-node locks so netsim can express both policies.
//   - §5.7: pedsort's threaded version serializes on a per-process kernel
//     mutex for mmap/munmap of logically private files.
//   - §5.8: Metis faults contend on the region-list lock even in read mode;
//     super-pages reduce fault counts; a single super-page mutex serializes
//     super-page faults (fixed with one mutex per mapping); caching zeroing
//     of super-pages flushes on-chip caches (fixed with non-caching
//     stores).
//   - §4.6: false sharing of page-struct reference counts and flags (Exim).
//
// Host cost: an address space keeps the regions Munmap returns and Mmap
// reuses them, as the kernel reuses vm_area_structs from a slab cache, so
// a steady mmap/fault/munmap loop allocates nothing; the sampled page
// structs hold their lines in two slices, not an object per struct.
package mm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/slock"
)

// Page sizes.
const (
	PageBytes      = 4 << 10
	SuperPageBytes = 2 << 20
)

// Config selects between stock and PK behaviors for the mm subsystem.
type Config struct {
	// PerMappingSuperPageMutex protects each super-page mapping with its
	// own mutex instead of one per-process mutex (Figure 1, Metis).
	PerMappingSuperPageMutex bool
	// NoncachingSuperPageZero zeroes super-pages with non-temporal stores
	// so the zeroing does not flush the contents of on-chip caches.
	NoncachingSuperPageZero bool
	// PageFalseSharingFix places the written page-struct fields (refcount,
	// flags) on their own cache line, away from read-mostly fields.
	PageFalseSharingFix bool
}

// Allocator is the physical page allocator: one free list + spin lock per
// NUMA node, as in Linux's per-node buddy allocator.
type Allocator struct {
	md    *mem.Model
	locks []slock.SpinLock
	freed []int64 // statistics per node
	alloc []int64
}

// NewAllocator returns an allocator with one free list per chip.
func NewAllocator(md *mem.Model) *Allocator {
	chips := md.Machine().Chips
	a := &Allocator{md: md, locks: make([]slock.SpinLock, chips)}
	for n := range a.locks {
		a.locks[n] = slock.NewSpinLock(md, "pgalloc-node*", n)
	}
	a.freed = make([]int64, chips)
	a.alloc = make([]int64, chips)
	return a
}

// AllocPages allocates n pages from the given node's free list, charging
// the lock and list manipulation.
func (a *Allocator) AllocPages(p *sim.Proc, node int, n int64) {
	if node < 0 || node >= len(a.locks) {
		panic(fmt.Sprintf("mm: alloc from node %d", node))
	}
	l := &a.locks[node]
	l.Acquire(p)
	p.Advance(n * costs.pageAllocWork)
	a.alloc[node] += n
	l.Release(p)
}

// FreePages returns n pages to the given node's free list.
func (a *Allocator) FreePages(p *sim.Proc, node int, n int64) {
	l := &a.locks[node]
	l.Acquire(p)
	p.Advance(n * costs.pageAllocWork / 2)
	a.freed[node] += n
	l.Release(p)
}

// Allocated returns the pages allocated from a node (statistics).
func (a *Allocator) Allocated(node int) int64 { return a.alloc[node] }

// Region is one mmap'd range of an address space.
type Region struct {
	// Bytes is the mapped length.
	Bytes int64
	// Huge marks a 2 MB super-page mapping (hugetlbfs).
	Huge bool
	// Faulted counts pages already populated.
	Faulted int64

	// mu serializes faults on a super-page mapping: the address space's
	// one super-page mutex (stock), or own, the mapping's own (PK).
	mu  *slock.Mutex
	own slock.Mutex
}

// PageSize returns the mapping's page size in bytes.
func (r *Region) PageSize() int64 {
	if r.Huge {
		return SuperPageBytes
	}
	return PageBytes
}

// Pages returns how many pages the region spans.
func (r *Region) Pages() int64 { return (r.Bytes + r.PageSize() - 1) / r.PageSize() }

// AddressSpace models one process's (or thread group's) virtual memory:
// a region list protected by an mmap_sem-style reader-writer lock, plus the
// super-page fault serialization mutex.
type AddressSpace struct {
	cfg   Config
	md    *mem.Model
	alloc *Allocator

	// RegionLock is mmap_sem: mmap/munmap take it for writing; page
	// faults take it for reading — and even read acquisitions modify
	// shared lock state (§5.8).
	RegionLock *slock.RWMutex

	// superMu is the stock single super-page fault mutex, built only
	// without Config.PerMappingSuperPageMutex.
	superMu slock.Mutex

	regions []*Region
	// free holds the regions Munmap removed, for Mmap to reuse, as the
	// kernel reuses vm_area_structs from their slab cache.
	free []*Region
	home int

	// userCores tracks which cores have faulted in this address space
	// (one bit per core, 64 per word); unmapping must shoot down their
	// TLBs.
	userCores []uint64
}

// NewAddressSpace returns an empty address space whose kernel structures
// are homed on the given chip.
func NewAddressSpace(md *mem.Model, alloc *Allocator, cfg Config, homeChip int) *AddressSpace {
	as := &AddressSpace{
		cfg:        cfg,
		md:         md,
		alloc:      alloc,
		RegionLock: slock.NewRWMutex(md, "mmap_sem", homeChip),
		home:       homeChip,
		userCores:  make([]uint64, (md.Machine().NCores+63)/64),
	}
	if !cfg.PerMappingSuperPageMutex {
		as.superMu = slock.NewMutex(md, "super-page", homeChip)
	}
	return as
}

// Mmap adds a mapping of the given size, taking the region lock for
// writing. Page-table population is deferred to Fault, as Linux does
// (§5.8: "Metis allocates memory with mmap, which adds the new memory to a
// region list but defers modifying page tables").
//
// The returned region is the caller's until it passes it to Munmap; a
// later Mmap may then return the same *Region for a new mapping.
func (as *AddressSpace) Mmap(p *sim.Proc, bytes int64, huge bool) *Region {
	var r *Region
	if n := len(as.free); n > 0 {
		r = as.free[n-1]
		as.free = as.free[:n-1]
	} else {
		r = new(Region)
	}
	*r = Region{Bytes: bytes, Huge: huge}
	if huge {
		r.mu = &as.superMu
		if as.cfg.PerMappingSuperPageMutex {
			r.own = slock.NewMutex(as.md, "super-page-mapping", as.home)
			r.mu = &r.own
		}
	}
	as.RegionLock.Lock(p)
	p.Advance(costs.mmapWork)
	as.regions = append(as.regions, r)
	as.RegionLock.Unlock(p)
	return r
}

// Munmap removes a mapping, shoots down the TLBs of every core using the
// address space, and frees the populated pages. It panics if r is not
// mapped in as: unmapping a region twice would hand it to two later
// mappings.
func (as *AddressSpace) Munmap(p *sim.Proc, r *Region) {
	as.RegionLock.Lock(p)
	i := slices.Index(as.regions, r)
	if i < 0 {
		panic("mm: munmap of a region not mapped in this address space")
	}
	cost := costs.mmapWork
	c := p.Core()
	others := 0
	for w, word := range as.userCores {
		if w == c>>6 {
			word &^= 1 << uint(c&63)
		}
		others += bits.OnesCount64(word)
	}
	if others > 0 {
		cost += int64(others) * costs.tlbShootdownPerCore
	}
	p.Advance(cost)
	as.regions = slices.Delete(as.regions, i, i+1)
	as.RegionLock.Unlock(p)
	if r.Faulted > 0 {
		units := r.Faulted // buddy operations charged at free
		if r.Huge {
			units *= 8 // pool return, mirroring the allocation charge
		}
		as.alloc.FreePages(p, p.Chip(), units)
		r.Faulted = 0
	}
	as.free = append(as.free, r)
}

// Fault handles a soft page fault on the region: it takes the region lock
// for reading, serializes super-page faults on the configured mutex,
// allocates physical memory from the faulting core's node, and zeroes it.
// dram, if non-nil, is the NUMA memory system; the zeroing traffic charges
// the controller of the faulting core's own chip, where the page was
// allocated.
func (as *AddressSpace) Fault(p *sim.Proc, r *Region, dram *mem.Controllers) {
	p.Advance(costs.faultEntryWork)
	as.userCores[p.Core()>>6] |= 1 << uint(p.Core()&63)
	as.RegionLock.RLock(p)
	if r.Huge {
		r.mu.Acquire(p)
		as.populate(p, r, dram)
		r.mu.Release(p)
	} else {
		as.populate(p, r, dram)
	}
	as.RegionLock.RUnlock(p)
}

func (as *AddressSpace) populate(p *sim.Proc, r *Region, dram *mem.Controllers) {
	node := p.Chip()
	if r.Huge {
		// hugetlbfs allocates from a pre-reserved pool: one grab, not
		// 512 buddy operations. Charge a handful of page-units of list
		// work under the node lock.
		as.alloc.AllocPages(p, node, 8)
	} else {
		as.alloc.AllocPages(p, node, 1)
	}
	r.Faulted++

	// Zeroing cost: bytes / store bandwidth. A caching zero of a 2 MB
	// super-page additionally displaces the whole L3's worth of useful
	// data; we charge the refill of the displaced lines to the zeroing
	// core, which is what the lost locality costs the application.
	zero := r.PageSize() / costs.zeroBytesPerCycle
	if r.Huge && !as.cfg.NoncachingSuperPageZero {
		m := as.md.Machine()
		displaced := min(r.PageSize(), m.L3Bytes) / m.CacheLineBytes
		zero += displaced * m.LatDRAMLocal / 8 // refills overlap 8-way
	}
	p.Advance(zero)
	if dram != nil {
		dram.Transfer(p, node, r.PageSize())
	}
}

// Regions returns the current region count (under no lock; test use).
func (as *AddressSpace) Regions() int { return len(as.regions) }

// PageStructs is a sampled array of kernel page structures used to model
// false sharing of page reference counts and flags (§4.6, Exim). Each
// logical page struct has a written field (refcount) and a read-mostly
// field (flags); in the stock layout they share a cache line, and the PK
// layout (PageFalseSharingFix) gives each its own.
type PageStructs struct {
	// flags and refs hold page i's flags line and refcount line; in the
	// stock layout they are one slice, so both name the same line.
	flags, refs []mem.Line

	// touchFlags/touchRefs are scratch sets reused by TouchN; procs of one
	// engine run serially, so a single pair suffices and the batch path
	// stays allocation-free like the per-struct Touch it replaces.
	touchFlags *mem.LineSet
	touchRefs  *mem.LineSet
}

// NewPageStructs allocates n sampled page structs, page i homed on chip
// i mod the chip count: one line each, or with padded a flags line and
// then a refcount line each.
func NewPageStructs(md *mem.Model, n int, padded bool) *PageStructs {
	ps := &PageStructs{
		flags:      make([]mem.Line, n),
		touchFlags: mem.NewLineSet(n),
		touchRefs:  mem.NewLineSet(n),
	}
	ps.refs = ps.flags
	if padded {
		ps.refs = make([]mem.Line, n)
	}
	chips := md.Machine().Chips
	for i := range n {
		ps.flags[i] = md.Alloc(i % chips)
		if padded {
			ps.refs[i] = md.Alloc(i % chips)
		}
	}
	return ps
}

// Touch models one COW/fork-path page-struct access: read the flags and
// atomically update the refcount of page i (mod the sample size). It is
// the single-struct case of TouchN, so the two paths cannot diverge.
func (ps *PageStructs) Touch(p *sim.Proc, md *mem.Model, i int) {
	ps.TouchN(p, md, i, 1)
}

// TouchN batch-charges n consecutive page-struct touches starting at page
// base: the flags reads and the refcount updates each resolve as one
// mem.AccessSet over the sampled lines, amortizing the directory lookups
// of fork/exit paths that touch dozens of page structs per operation.
func (ps *PageStructs) TouchN(p *sim.Proc, md *mem.Model, base, n int) {
	ps.touchFlags.Reset()
	ps.touchRefs.Reset()
	for i := base; i < base+n; i++ {
		ps.touchFlags.Add(ps.FlagsLine(i))
		ps.touchRefs.Add(ps.refs[i%len(ps.refs)])
	}
	c := p.Core()
	cost := md.AccessSet(c, ps.touchFlags.Lines(), mem.OpRead, p.Now())
	cost += md.AccessSet(c, ps.touchRefs.Lines(), mem.OpAtomic, p.Now())
	p.Advance(cost)
}

// FlagsLine returns the cache line holding page i's read-mostly flags
// word (mod the sample size), the word fault handlers read.
func (ps *PageStructs) FlagsLine(i int) mem.Line {
	return ps.flags[i%len(ps.flags)]
}
