// Package slock provides the simulated kernel synchronization primitives
// whose contention behavior the paper analyzes:
//
//   - SpinLock: a ticket-style non-scalable spin lock. Uncontended transfer
//     costs come from the coherence model; under contention each release
//     additionally slows the holder in proportion to the number of spinning
//     waiters (§4.1: "non-scalable spin locks produce per-acquire
//     interconnect traffic that is proportional to the number of waiting
//     cores; this traffic may slow down the core that holds the lock").
//   - Mutex: Linux's adaptive mutex (spin briefly, then sleep). Under
//     intense contention handoffs involve futex wakeups and woken threads
//     that lose races to later arrivals, which the paper identifies as
//     starvation-prone (§5.5); the model charges a re-acquire penalty that
//     grows with the waiter count.
//   - RWMutex: a reader-writer lock whose read acquisition still writes the
//     shared lock word (§5.8: "acquiring it even in read mode involves
//     modifying shared lock state").
//   - Gen: a generation counter (seqcount) enabling the PK lock-free dentry
//     comparison protocol (§4.4).
//
// All primitives charge cycle costs through a mem.Model and block/wake
// procs through the sim engine; they are deterministic.
package slock

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
)

// Locker is the common interface of the simulated locks, letting kernel
// structures swap disciplines (e.g. ticket spin lock vs MCS) per config.
// A lock's acquire and contention counts live in its class's
// prof.LockStats record, md.Prof.Lock(name).
type Locker interface {
	Acquire(p *sim.Proc)
	Release(p *sim.Proc)
}

var (
	_ Locker = (*SpinLock)(nil)
	_ Locker = (*Mutex)(nil)
	_ Locker = (*MCSLock)(nil)
)

// waitLock is the state SpinLock and Mutex share: the lock word's line,
// the held flag, the FIFO of blocked waiters, the accounting mode and the
// lock class's stats record. The two differ only in what a contended
// acquire and a release charge.
type waitLock struct {
	// ChargeUser accounts the lock's CPU cost (including busy-wait) as
	// user time instead of system time, for application-level locks:
	// PostgreSQL's buffer-cache page spin locks and its futex-based lock
	// manager burn user cycles when they contend (§5.5).
	ChargeUser bool

	md   *mem.Model
	line mem.Line

	held    bool
	waiters []*sim.Proc
	stats   *prof.LockStats
}

func newWaitLock(md *mem.Model, name string, line mem.Line) waitLock {
	return waitLock{md: md, line: line, stats: md.Prof.Lock(name)}
}

// Line returns the cache line that holds the lock word.
func (l *waitLock) Line() mem.Line { return l.line }

// adv charges cycles with the configured accounting.
func (l *waitLock) adv(p *sim.Proc, cycles int64) {
	if l.ChargeUser {
		p.AdvanceUser(cycles)
	} else {
		p.Advance(cycles)
	}
}

// accountWait attributes busy-wait time that already elapsed while the
// proc was blocked, with the configured accounting.
func (l *waitLock) accountWait(p *sim.Proc, cycles int64) {
	if l.ChargeUser {
		p.AccountUser(cycles)
	} else {
		p.AccountSys(cycles)
	}
}

// acquire counts an acquire and, if the lock is free, takes it and
// charges the atomic on the lock word. Otherwise it queues p and blocks
// it until a release hands the lock over, then returns contended true and
// how long p waited, leaving the new holder's charges to the caller.
//
// Lock state transitions happen instantaneously at the proc's current
// virtual time and the cycle cost is charged afterwards; this keeps state
// decisions in a single total order even though cost charging yields to
// the engine.
func (l *waitLock) acquire(p *sim.Proc) (contended bool, waited int64) {
	l.stats.Acquisitions++
	if !l.held {
		l.held = true
		l.adv(p, l.md.Atomic(p.Core(), l.line, p.Now()))
		return false, 0
	}
	l.stats.Contended++
	l.waiters = append(l.waiters, p)
	start := p.Now()
	waited = p.Block() - start
	l.stats.WaitCycles += waited
	return true, waited
}

// release drops the lock, passing it directly to the oldest waiter, woken
// no earlier than wakeAt, if there is one. Releasing a lock that is not
// held panics.
func (l *waitLock) release(wakeAt int64) {
	if !l.held {
		panic("slock: release of unheld lock " + l.stats.Name)
	}
	if len(l.waiters) > 0 {
		dequeue(&l.waiters).Wake(wakeAt)
	} else {
		l.held = false
	}
}

// SpinLock is a non-scalable kernel spin lock.
type SpinLock struct {
	waitLock
}

// NewSpinLock returns a spin lock whose word is homed on the given chip.
// It returns a value, so the kernel object that owns the lock embeds it
// instead of pointing at a separate allocation; the lock must not be
// copied once it is in use. name is the lock's class (see prof.Registry).
func NewSpinLock(md *mem.Model, name string, homeChip int) SpinLock {
	return NewSpinLockAt(md, name, md.Alloc(homeChip))
}

// NewSpinLockAt returns a spin lock whose word lives on an existing cache
// line, modeling a lock embedded in a structure alongside other fields
// (e.g. d_lock sharing struct dentry's first line with d_count).
func NewSpinLockAt(md *mem.Model, name string, line mem.Line) SpinLock {
	return SpinLock{newWaitLock(md, name, line)}
}

// Acquire takes the lock, blocking the proc while it is held elsewhere.
// The acquiring core always pays the coherence cost of the lock word; a
// core that last held the lock pays only a cache hit, matching the paper's
// "a few cycles if the acquiring core was the previous lock holder".
func (l *SpinLock) Acquire(p *sim.Proc) {
	contended, waited := l.acquire(p)
	if !contended {
		return
	}
	// The waiter was busy-spinning the whole time; account it as CPU
	// time (the core did no useful work).
	l.accountWait(p, waited)
	// The new holder pays the line transfer when it finally wins the lock.
	l.adv(p, l.md.Atomic(p.Core(), l.line, p.Now()))
}

// Release drops the lock and hands it to the oldest waiter, if any. The
// release write and the subsequent handoff must compete with every
// spinning waiter's polling of the same line, so both the releasing core
// and the lock transfer itself are slowed in proportion to the waiter
// count — the defining non-scalable behavior (§4.1).
func (l *SpinLock) Release(p *sim.Proc) {
	traffic := int64(len(l.waiters)) * costs.spinTrafficPerWaiter
	// The new holder cannot proceed until the polling storm drains.
	l.release(p.Now() + traffic)
	l.adv(p, l.md.Write(p.Core(), l.line, p.Now())+traffic)
}

// dequeue removes and returns the oldest entry of a FIFO wait queue. It
// shifts the rest down in place rather than reslicing past the front, so
// the queue keeps its capacity and a steadily contended lock stops
// allocating once its queue has grown to the peak waiter count (at most
// one entry per core).
func dequeue[T any](q *[]T) T {
	s := *q
	head := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*q = s[:n]
	return head
}

// Mutex is Linux's adaptive mutex: a thread briefly busy-waits and then
// yields the CPU (footnote 1 of the paper).
type Mutex struct {
	waitLock
}

// NewMutex returns a mutex homed on the given chip, for its owner to
// embed. name is the mutex's class (see prof.Registry).
func NewMutex(md *mem.Model, name string, homeChip int) Mutex {
	return Mutex{newWaitLock(md, name, md.Alloc(homeChip))}
}

// Acquire takes the mutex. The adaptive behavior (paper footnote 1: "a
// thread initially busy waits to acquire a mutex, but if the wait time is
// long the thread yields") has two contended regimes, selected by how long
// the wait actually lasted:
//
//   - The wait fits the spin window: the proc busy-waited and took the
//     lock without futex traffic. Short-hold locks under pairwise
//     contention stay in this cheap regime, which is why they scale fine
//     up to medium core counts.
//   - The wait exceeded the window: the proc slept. The handoff pays a
//     futex wakeup, and the woken thread races newly arriving spinners
//     and loses repeatedly (the §5.5 starvation), a penalty that grows
//     with the crowd. Each such handoff lengthens the effective hold,
//     which pushes the next waiter's wait past the window too — the
//     positive feedback behind the lseek collapse between 32 and 48
//     cores.
func (m *Mutex) Acquire(p *sim.Proc) {
	contended, waited := m.acquire(p)
	if !contended {
		return
	}
	if waited <= costs.mutexSpinWindow {
		// Spin-resolved: the wait was spent busy-waiting on the CPU.
		m.accountWait(p, waited)
		m.adv(p, m.md.Atomic(p.Core(), m.line, p.Now()))
		return
	}
	penalty := int64(len(m.waiters)) * costs.starvationPerWaiter
	m.adv(p, costs.mutexSpinWindow+costs.futexWake+penalty+m.md.Atomic(p.Core(), m.line, p.Now()))
}

// Release drops the mutex and wakes the oldest sleeper. Ownership passes
// directly to the woken waiter.
func (m *Mutex) Release(p *sim.Proc) {
	m.release(p.Now())
	m.adv(p, m.md.Write(p.Core(), m.line, p.Now()))
}

// RWMutex is a reader-writer lock. Read acquisition modifies the shared
// reader count, so concurrent readers on different chips still ping-pong
// the lock word — the Metis region-list bottleneck (§5.8).
type RWMutex struct {
	md   *mem.Model
	line mem.Line

	readers   int
	writer    bool
	waitQueue []rwWaiter
	stats     *prof.LockStats
}

type rwWaiter struct {
	p     *sim.Proc
	write bool
}

// NewRWMutex allocates a reader-writer lock homed on the given chip. name
// is the lock's class (see prof.Registry).
func NewRWMutex(md *mem.Model, name string, homeChip int) *RWMutex {
	return &RWMutex{md: md, line: md.Alloc(homeChip), stats: md.Prof.Lock(name)}
}

// RLock acquires the lock in shared mode. Even the uncontended fast path
// pays an atomic write to the shared lock word. State transitions happen
// instantaneously; the cycle cost is charged afterwards.
func (rw *RWMutex) RLock(p *sim.Proc) {
	rw.stats.Acquisitions++
	if !rw.writer && !rw.writerQueued() {
		rw.readers++
		p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
		return
	}
	rw.stats.Contended++
	rw.waitQueue = append(rw.waitQueue, rwWaiter{p: p, write: false})
	start := p.Now()
	p.Block()
	rw.stats.WaitCycles += p.Now() - start
	p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
}

// writerQueued reports whether a writer is waiting; new readers queue
// behind it to avoid writer starvation, like the kernel's rwsem.
func (rw *RWMutex) writerQueued() bool {
	for _, w := range rw.waitQueue {
		if w.write {
			return true
		}
	}
	return false
}

// RUnlock releases shared mode.
func (rw *RWMutex) RUnlock(p *sim.Proc) {
	if rw.readers <= 0 {
		panic("slock: RUnlock with no readers on " + rw.stats.Name)
	}
	rw.readers--
	rw.drain(p)
	p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
}

// Lock acquires the lock exclusively.
func (rw *RWMutex) Lock(p *sim.Proc) {
	rw.stats.Acquisitions++
	if !rw.writer && rw.readers == 0 {
		rw.writer = true
		p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
		return
	}
	rw.stats.Contended++
	rw.waitQueue = append(rw.waitQueue, rwWaiter{p: p, write: true})
	start := p.Now()
	p.Block()
	rw.stats.WaitCycles += p.Now() - start
	p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
}

// Unlock releases exclusive mode.
func (rw *RWMutex) Unlock(p *sim.Proc) {
	if !rw.writer {
		panic("slock: Unlock of unheld RWMutex " + rw.stats.Name)
	}
	rw.writer = false
	rw.drain(p)
	p.Advance(rw.md.Write(p.Core(), rw.line, p.Now()))
}

// drain admits waiters: one writer, or a run of readers.
func (rw *RWMutex) drain(p *sim.Proc) {
	if rw.writer || len(rw.waitQueue) == 0 {
		return
	}
	if rw.waitQueue[0].write {
		if rw.readers == 0 {
			w := dequeue(&rw.waitQueue)
			rw.writer = true
			w.p.Wake(p.Now())
		}
		return
	}
	for len(rw.waitQueue) > 0 && !rw.waitQueue[0].write {
		w := dequeue(&rw.waitQueue)
		rw.readers++
		w.p.Wake(p.Now())
	}
}

// Gen is a generation counter (seqcount) protecting a small set of fields,
// enabling lock-free readers with fallback (§4.4). Writers must hold the
// associated spin lock; during a modification the generation is 0 and
// readers fall back to locking.
type Gen struct {
	md   *mem.Model
	line mem.Line

	gen       uint64 // current generation; 0 while a writer is active
	savedGen  uint64
	modifying bool
}

// NewGen returns a generation counter homed on the given chip, for its
// owner to embed.
func NewGen(md *mem.Model, homeChip int) Gen {
	return Gen{md: md, line: md.Alloc(homeChip), gen: 1}
}

// Line returns the cache line that holds the generation.
func (g *Gen) Line() mem.Line { return g.line }

// BeginWrite marks a modification in progress: the generation is set to 0
// so concurrent lock-free readers fall back to the locking protocol.
func (g *Gen) BeginWrite(p *sim.Proc) {
	if g.modifying {
		panic("slock: nested Gen.BeginWrite")
	}
	g.modifying = true
	g.savedGen = g.gen
	g.gen = 0
	p.Advance(g.md.Write(p.Core(), g.line, p.Now()))
}

// EndWrite completes the modification, bumping the generation.
func (g *Gen) EndWrite(p *sim.Proc) {
	if !g.modifying {
		panic("slock: Gen.EndWrite without BeginWrite")
	}
	g.modifying = false
	g.gen = g.savedGen + 1
	p.Advance(g.md.Write(p.Core(), g.line, p.Now()))
}

// TryRead performs the lock-free read protocol over nFieldLines field
// cache lines. It returns false if the reader must fall back to the
// locking protocol (a writer was active). The field lines are charged as
// reads; since writers are rare for hot dentries, these are usually cache
// hits — the whole point of the optimization.
func (g *Gen) TryRead(p *sim.Proc, fieldLines []mem.Line) bool {
	p.Advance(g.md.Read(p.Core(), g.line, p.Now()))
	if g.gen == 0 {
		return false
	}
	before := g.gen
	p.Advance(g.md.AccessSet(p.Core(), fieldLines, mem.OpRead, p.Now()))
	p.Advance(g.md.Read(p.Core(), g.line, p.Now()))
	return g.gen == before
}

// String returns a diagnostic description.
func (g *Gen) String() string { return fmt.Sprintf("gen=%d modifying=%v", g.gen, g.modifying) }
