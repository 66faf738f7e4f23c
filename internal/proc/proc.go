// Package proc models process management: fork, exec, and exit, including
// the cache behavior the paper highlights for Exim (§5.2): a forked child
// scheduled on a different core suffers cache misses when it first touches
// kernel data — especially virtual-address-mapping structures — that its
// parent initialized, and process destruction frees those mappings with the
// same cross-core penalty. Fork also touches shared page structures, which
// false-share reference counts and flags in the stock layout (§4.6).
package proc

import (
	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
	"repro/internal/slock"
)

// ptSampleLines is how many page-table cache lines we sample per process
// to model parent/child transfer costs. It sizes an array, so it stays a
// constant and proc's fingerprint records it by name.
const ptSampleLines = 24

// Table is the process table.
type Table struct {
	md *mem.Model
	ps *mm.PageStructs

	pidLock slock.SpinLock // pidmap/tasklist lock
	nextPID int

	forks, execs int64

	// exited holds the processes Exit tore down, for Fork to reuse.
	exited []*Process
}

// NewTable creates a process table. pageStructs models the shared page
// array (padded or not per the PageFalseSharingFix).
func NewTable(md *mem.Model, pageStructs *mm.PageStructs) *Table {
	return &Table{
		md:      md,
		ps:      pageStructs,
		pidLock: slock.NewSpinLock(md, "tasklist_lock", 0),
	}
}

// Process is one simulated OS process.
type Process struct {
	PID int
	// AS is the process's address space (may be shared between "threads").
	AS *mm.AddressSpace
	// ptLines sample the page-table lines the parent wrote during fork;
	// the child's first touches and the final frees pay their transfer.
	// They live inline, so a fork allocates at most the Process.
	ptLines [ptSampleLines]mem.Line
}

// NewInitProcess makes a root process at setup time (no cost).
func (t *Table) NewInitProcess(as *mm.AddressSpace) *Process {
	t.nextPID++
	return &Process{PID: t.nextPID, AS: as}
}

// Fork creates a child of parent, reusing a process Exit tore down when
// there is one. The calling proc pays the fork cost: fixed work, the pid
// lock, page-struct reference updates, and writes to the sampled
// page-table lines (the data a cross-core child will miss on).
func (t *Table) Fork(p *sim.Proc, parent *Process, childAS *mm.AddressSpace) *Process {
	t.forks++
	t.pidLock.Acquire(p)
	t.nextPID++
	pid := t.nextPID
	t.pidLock.Release(p)

	var child *Process
	if n := len(t.exited); n > 0 {
		child = t.exited[n-1]
		t.exited = t.exited[:n-1]
	} else {
		child = new(Process)
	}
	*child = Process{PID: pid, AS: childAS}
	for i := range child.ptLines {
		child.ptLines[i] = t.md.AllocLocal(p.Core())
	}
	p.Advance(costs.forkWork + t.md.AccessSet(p.Core(), child.ptLines[:], mem.OpWrite, p.Now()))
	t.ps.TouchN(p, t.md, pid*7, costs.pageStructTouches)
	return child
}

// ChildStart charges the child's first touches of the kernel data its
// parent initialized; cheap if the child runs on the parent's core, a
// string of remote fetches otherwise.
func (t *Table) ChildStart(p *sim.Proc, child *Process) {
	p.Advance(t.md.AccessSet(p.Core(), child.ptLines[:], mem.OpRead, p.Now()))
}

// Exec charges an exec: new address space, binary load.
func (t *Table) Exec(p *sim.Proc) {
	t.execs++
	p.Advance(costs.execWork)
}

// Exit tears a forked process down: page-struct releases and mapping
// frees, writing the sampled page-table lines (remote if the process
// migrated). The freed page tables return their lines to the memory
// model, and the table keeps the Process for the next Fork to reuse, so
// the caller must not touch it again.
func (t *Table) Exit(p *sim.Proc, proc *Process) {
	p.Advance(costs.exitWork + t.md.AccessSet(p.Core(), proc.ptLines[:], mem.OpWrite, p.Now()))
	for _, l := range proc.ptLines {
		t.md.Free(l)
	}
	t.ps.TouchN(p, t.md, proc.PID*7, costs.pageStructTouches)
	t.exited = append(t.exited, proc)
}

// Forks returns the total fork count.
func (t *Table) Forks() int64 { return t.forks }

// Execs returns the total exec count.
func (t *Table) Execs() int64 { return t.execs }
