package vfs

import (
	"repro/internal/mem"
	"repro/internal/scount"
	"repro/internal/sim"
	"repro/internal/slock"
)

// MountTable models vfsmount resolution during path walks. The stock
// kernel resolves mounts through a central table protected by one spin
// lock and reference-counts the vfsmount with a shared counter; Exim's
// collapse on the stock kernel is primarily this lock (§5.2). PK adds
// per-core mount caches and sloppy reference counters (§4.5, §4.3). The
// per-core cache lines exist only when Config.PerCoreMountCache is set,
// and Get uses them exactly when they exist.
type MountTable struct {
	md *mem.Model

	// lock is the global mount table lock (stock hot spot). A ticket
	// spin lock normally; an MCS lock with Config.ScalableMountLock.
	lock slock.Locker
	// centralLine is the table data consulted on a central lookup.
	centralLine mem.Line
	// ref counts references to the (single) vfsmount.
	ref scount.Counter

	// Per-core cache state, nil without Config.PerCoreMountCache.
	cacheLines []mem.Line
	cacheWarm  []bool

	lookups, cacheHits int64
}

func newMountTable(md *mem.Model, cfg Config) *MountTable {
	mt := &MountTable{
		md:          md,
		centralLine: md.Alloc(0),
	}
	if cfg.ScalableMountLock {
		mt.lock = slock.NewMCSLock(md, "vfsmount_lock(mcs)", 0)
	} else {
		l := slock.NewSpinLock(md, "vfsmount_lock", 0)
		mt.lock = &l
	}
	md.Label(mt.centralLine, "vfsmount.table+refcnt")
	if cfg.SloppyVfsmountRef {
		mt.ref = scount.NewSloppy(md, 0)
	} else {
		// Stock: the refcount shares the hot central table line.
		ref := scount.NewSharedAt(md, mt.centralLine)
		mt.ref = &ref
	}
	if cfg.PerCoreMountCache {
		n := md.Machine().NCores
		mt.cacheLines = make([]mem.Line, n)
		for c := 0; c < n; c++ {
			mt.cacheLines[c] = md.AllocLocal(c)
		}
		mt.cacheWarm = make([]bool, n)
	}
	return mt
}

// Get resolves the mount for a path walk and takes a vfsmount reference.
// Stock: global spin lock + central table read + shared refcount. PK: the
// current core's cache satisfies the lookup locally; a miss falls through
// to the central table and warms the cache (§4.5).
func (mt *MountTable) Get(p *sim.Proc) {
	mt.lookups++
	core := p.Core()
	if mt.cacheLines != nil {
		if mt.cacheWarm[core] {
			mt.cacheHits++
			p.Advance(mt.md.Read(core, mt.cacheLines[core], p.Now()))
		} else {
			mt.lock.Acquire(p)
			p.Advance(mt.md.Read(core, mt.centralLine, p.Now()))
			mt.lock.Release(p)
			mt.cacheWarm[core] = true
			p.Advance(mt.md.Write(core, mt.cacheLines[core], p.Now()))
		}
	} else {
		mt.lock.Acquire(p)
		p.Advance(mt.md.Read(core, mt.centralLine, p.Now()))
		mt.lock.Release(p)
	}
	mt.ref.Acquire(p, 1)
}

// Put drops the vfsmount reference taken by Get.
func (mt *MountTable) Put(p *sim.Proc) {
	mt.ref.Release(p, 1)
}

// Lookups returns the total number of mount resolutions.
func (mt *MountTable) Lookups() int64 { return mt.lookups }

// CacheHits returns how many resolutions were satisfied per-core.
func (mt *MountTable) CacheHits() int64 { return mt.cacheHits }
