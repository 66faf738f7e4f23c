package vfs

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/slock"
)

// SuperBlock models the per-super-block list of open files, used to decide
// whether a read-write file system can be remounted read-only. The list is
// split into shards, each a spin lock and the line it guards, and a core
// adds files to shard core mod the shard count. The stock kernel is the
// one-shard case: one list under one lock, sb_files, where every open and
// close from every core serializes. PK keeps one shard per core
// (sb_files-cpu*): opens lock only the local list; a close on a different
// core must "expensively" lock the opener's list (§4.5). Only the
// constructor chooses the layout; every operation is the same code on both.
type SuperBlock struct {
	md    *mem.Model
	locks []slock.SpinLock
	lines []mem.Line

	crossCoreRemovals int64
}

func newSuperBlock(md *mem.Model, cfg Config) *SuperBlock {
	sb := &SuperBlock{md: md}
	if !cfg.PerCoreOpenList {
		sb.locks = []slock.SpinLock{slock.NewSpinLock(md, "sb_files", 0)}
		sb.lines = []mem.Line{md.Alloc(0)}
		return sb
	}
	n := md.Machine().NCores
	sb.locks = make([]slock.SpinLock, n)
	sb.lines = make([]mem.Line, n)
	for c := 0; c < n; c++ {
		sb.locks[c] = slock.NewSpinLock(md, "sb_files-cpu*", md.Machine().Chip(c))
		sb.lines[c] = md.AllocLocal(c)
	}
	return sb
}

// shard returns the list that core c adds to.
func (sb *SuperBlock) shard(c int) int { return c % len(sb.locks) }

// Add installs a file on the calling core's list and returns that list's
// shard, which Remove takes back.
func (sb *SuperBlock) Add(p *sim.Proc) int {
	s := sb.shard(p.Core())
	sb.update(p, s)
	return s
}

// Remove takes the file off the list it was added to. Removing from
// another core's list pays the remote line transfers.
func (sb *SuperBlock) Remove(p *sim.Proc, shard int) {
	if shard != sb.shard(p.Core()) {
		sb.crossCoreRemovals++
	}
	sb.update(p, shard)
}

// update charges one list insertion or removal under the shard's lock.
func (sb *SuperBlock) update(p *sim.Proc, s int) {
	sb.locks[s].Acquire(p)
	p.Advance(sb.md.Write(p.Core(), sb.lines[s], p.Now()) + costs.listWork)
	sb.locks[s].Release(p)
}

// RemountCheck scans every list, the expensive whole-table walk the
// per-core design pays on remount (§4.5: "it must lock and scan all cores'
// lists").
func (sb *SuperBlock) RemountCheck(p *sim.Proc) {
	for s := range sb.locks {
		sb.locks[s].Acquire(p)
		p.Advance(sb.md.Read(p.Core(), sb.lines[s], p.Now()) + costs.listWork)
		sb.locks[s].Release(p)
	}
}

// CrossCoreRemovals returns how many closes happened on a different core
// than the matching open.
func (sb *SuperBlock) CrossCoreRemovals() int64 { return sb.crossCoreRemovals }
