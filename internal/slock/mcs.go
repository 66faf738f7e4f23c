package slock

import (
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
)

// MCSLock is a queue-based scalable spin lock in the style of
// Mellor-Crummey and Scott [41], which the paper cites as the classic
// answer to non-scalable spin locks: each waiter spins on its own cache
// line, so a release generates O(1) interconnect traffic instead of
// traffic proportional to the number of waiters.
//
// The paper's deeper point — which the "scalable-locks" experiment
// demonstrates — is that a scalable lock removes the *lock's* collapse but
// not the *data's*: if the critical section touches a shared line (like
// the vfsmount table entry and its embedded reference count), cores still
// serialize on that line, so refactoring the data (sloppy counters,
// per-core caches) beats upgrading the lock.
type MCSLock struct {
	Name string

	md   *mem.Model
	tail mem.Line // the swap target for enqueueing

	// qnodeLines are per-core queue nodes, each on its own local line.
	qnodeLines []mem.Line

	held    bool
	waiters []*sim.Proc

	acquCount int64
	contCount int64
	stats     *prof.LockStats
}

// NewMCSLock allocates an MCS lock with per-core queue nodes.
func NewMCSLock(md *mem.Model, name string, homeChip int) *MCSLock {
	l := &MCSLock{
		Name:  name,
		md:    md,
		tail:  md.Alloc(homeChip),
		stats: md.Prof.Lock(name),
	}
	for c := 0; c < md.Machine().NCores; c++ {
		l.qnodeLines = append(l.qnodeLines, md.AllocLocal(c))
	}
	return l
}

// Acquire takes the lock. The enqueue is one atomic swap on the tail
// line; waiting is a spin on the core's own queue node, which costs the
// interconnect nothing.
func (l *MCSLock) Acquire(p *sim.Proc) {
	l.acquCount++
	l.stats.Acquisitions++
	// Swap self into the tail: the lock's only shared-line operation,
	// paid once per acquire regardless of contention.
	p.Advance(l.md.Atomic(p.Core(), l.tail, p.Now()))
	// Re-check state after the charge: the lock may have been released
	// while the swap was in flight (we were not yet queued).
	if !l.held {
		l.held = true
		return
	}
	l.contCount++
	l.stats.Contended++
	l.waiters = append(l.waiters, p)
	start := p.Now()
	wake := p.Block()
	// The wait was a local spin: CPU time, but no shared-line traffic.
	p.AccountSys(wake - start)
	l.stats.WaitCycles += wake - start
	// Reading the handoff flag on our own queue node: local.
	p.Advance(l.md.Read(p.Core(), l.qnodeLines[p.Core()], p.Now()))
}

// Release hands the lock to the next queued waiter by writing that
// waiter's queue node — O(1) traffic regardless of queue length, the
// defining property of a scalable lock.
func (l *MCSLock) Release(p *sim.Proc) {
	if !l.held {
		panic("slock: release of unheld MCS lock " + l.Name)
	}
	// State transitions happen before cycle charging (see SpinLock), so a
	// proc that observes the lock state mid-charge cannot strand itself.
	if len(l.waiters) > 0 {
		next := dequeue(&l.waiters)
		next.Wake(p.Now())
		// Write the successor's qnode (remote line, but just one).
		p.Advance(l.md.Write(p.Core(), l.qnodeLines[next.Core()], p.Now()))
		return
	}
	// No successor: clear the tail.
	l.held = false
	p.Advance(l.md.Atomic(p.Core(), l.tail, p.Now()))
}

// Acquisitions returns the total acquire count.
func (l *MCSLock) Acquisitions() int64 { return l.acquCount }

// Contended returns how many acquisitions had to wait.
func (l *MCSLock) Contended() int64 { return l.contCount }
