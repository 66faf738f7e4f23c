package vfs

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/slock"
)

// SuperBlock models the per-super-block list of open files, used to decide
// whether a read-write file system can be remounted read-only. The stock
// kernel keeps one list under one lock; every open and close from every
// core serializes there. PK splits it into per-core lists: opens lock only
// the local list; a close on a different core must "expensively" lock the
// opener's list (§4.5).
type SuperBlock struct {
	md  *mem.Model
	cfg Config

	// Stock: one lock + one list line.
	lock     slock.SpinLock
	listLine mem.Line

	// PK: per-core locks and list lines.
	coreLocks []slock.SpinLock
	coreLines []mem.Line

	crossCoreRemovals int64
}

func newSuperBlock(md *mem.Model, cfg Config) *SuperBlock {
	sb := &SuperBlock{
		md:       md,
		cfg:      cfg,
		lock:     slock.NewSpinLock(md, "sb_files", 0),
		listLine: md.Alloc(0),
	}
	n := md.Machine().NCores
	sb.coreLocks = make([]slock.SpinLock, n)
	for c := 0; c < n; c++ {
		sb.coreLocks[c] = slock.NewSpinLock(md, "sb_files-cpu*", md.Machine().Chip(c))
		sb.coreLines = append(sb.coreLines, md.AllocLocal(c))
	}
	return sb
}

// Add installs a file on the open list, returning which core's list holds
// it (for PK removal accounting).
func (sb *SuperBlock) Add(p *sim.Proc) int {
	core := p.Core()
	if sb.cfg.PerCoreOpenList {
		sb.coreLocks[core].Acquire(p)
		p.Advance(sb.md.Write(core, sb.coreLines[core], p.Now()) + costs.listWork)
		sb.coreLocks[core].Release(p)
		return core
	}
	sb.lock.Acquire(p)
	p.Advance(sb.md.Write(core, sb.listLine, p.Now()) + costs.listWork)
	sb.lock.Release(p)
	return -1
}

// Remove takes the file off the list it was added to. With per-core lists,
// removing from another core's list pays the remote line transfers.
func (sb *SuperBlock) Remove(p *sim.Proc, addedOn int) {
	core := p.Core()
	if sb.cfg.PerCoreOpenList {
		target := addedOn
		if target < 0 {
			target = core
		}
		if target != core {
			sb.crossCoreRemovals++
		}
		sb.coreLocks[target].Acquire(p)
		p.Advance(sb.md.Write(core, sb.coreLines[target], p.Now()) + costs.listWork)
		sb.coreLocks[target].Release(p)
		return
	}
	sb.lock.Acquire(p)
	p.Advance(sb.md.Write(core, sb.listLine, p.Now()) + costs.listWork)
	sb.lock.Release(p)
}

// RemountCheck scans every core's list, the expensive whole-table walk the
// per-core design pays on remount (§4.5: "it must lock and scan all cores'
// lists").
func (sb *SuperBlock) RemountCheck(p *sim.Proc) {
	if !sb.cfg.PerCoreOpenList {
		sb.lock.Acquire(p)
		p.Advance(sb.md.Read(p.Core(), sb.listLine, p.Now()) + costs.listWork)
		sb.lock.Release(p)
		return
	}
	for c := range sb.coreLocks {
		sb.coreLocks[c].Acquire(p)
		p.Advance(sb.md.Read(p.Core(), sb.coreLines[c], p.Now()) + costs.listWork)
		sb.coreLocks[c].Release(p)
	}
}

// CrossCoreRemovals returns how many closes happened on a different core
// than the matching open.
func (sb *SuperBlock) CrossCoreRemovals() int64 { return sb.crossCoreRemovals }
