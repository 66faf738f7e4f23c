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
type Locker interface {
	Acquire(p *sim.Proc)
	Release(p *sim.Proc)
	Acquisitions() int64
	Contended() int64
}

var (
	_ Locker = (*SpinLock)(nil)
	_ Locker = (*Mutex)(nil)
	_ Locker = (*MCSLock)(nil)
)

// Tunable cost constants (cycles). These are order-of-magnitude estimates
// consistent with the paper's qualitative statements; the reproduced curves
// depend on their relative, not absolute, magnitudes.
const (
	// spinTrafficPerWaiter is the holder slowdown per spinning waiter per
	// release — the non-scalable term.
	spinTrafficPerWaiter = 60
	// futexWake is the cost of waking a sleeping mutex waiter.
	futexWake = 3000
	// mutexSpinWindow is how long an adaptive mutex busy-waits before
	// yielding to the futex path. Contended acquires whose total wait fits
	// the window never sleep.
	mutexSpinWindow = 3000
	// starvationPerWaiter is the extra re-acquire cost a woken mutex waiter
	// pays per concurrent waiter (lost races to spinning newcomers).
	starvationPerWaiter = 400
)

// SpinLock is a non-scalable kernel spin lock.
type SpinLock struct {
	Name string

	// ChargeUser accounts the lock's CPU cost (including busy-wait) as
	// user time, for application-level spin locks such as PostgreSQL's
	// buffer-cache page locks (§5.5).
	ChargeUser bool

	md   *mem.Model
	line mem.Line

	held      bool
	waiters   []*sim.Proc
	acquCount int64
	contCount int64
	stats     *prof.LockStats
}

func (l *SpinLock) adv(p *sim.Proc, cycles int64) {
	if l.ChargeUser {
		p.AdvanceUser(cycles)
	} else {
		p.Advance(cycles)
	}
}

func (l *SpinLock) accountWait(p *sim.Proc, cycles int64) {
	if l.ChargeUser {
		p.AccountUser(cycles)
	} else {
		p.AccountSys(cycles)
	}
}

// NewSpinLock allocates a spin lock whose word is homed on the given chip.
func NewSpinLock(md *mem.Model, name string, homeChip int) *SpinLock {
	return &SpinLock{Name: name, md: md, line: md.Alloc(homeChip), stats: md.Prof.Lock(name)}
}

// NewSpinLockAt creates a spin lock whose word lives on an existing cache
// line, modeling a lock embedded in a structure alongside other fields
// (e.g. d_lock sharing struct dentry's first line with d_count).
func NewSpinLockAt(md *mem.Model, name string, line mem.Line) *SpinLock {
	return &SpinLock{Name: name, md: md, line: line, stats: md.Prof.Lock(name)}
}

// Line returns the cache line holding the lock word.
func (l *SpinLock) Line() mem.Line { return l.line }

// Acquire takes the lock, blocking the proc while it is held elsewhere.
// The acquiring core always pays the coherence cost of the lock word; a
// core that last held the lock pays only a cache hit, matching the paper's
// "a few cycles if the acquiring core was the previous lock holder".
//
// Lock state transitions happen instantaneously at the proc's current
// virtual time and the cycle cost is charged afterwards; this keeps state
// decisions in a single total order even though cost charging yields to
// the engine.
func (l *SpinLock) Acquire(p *sim.Proc) {
	l.acquCount++
	l.stats.Acquisitions++
	if !l.held {
		l.held = true
		l.adv(p, l.md.Atomic(p.Core(), l.line, p.Now()))
		return
	}
	l.contCount++
	l.stats.Contended++
	l.waiters = append(l.waiters, p)
	start := p.Now()
	wake := p.Block()
	// The waiter was busy-spinning the whole time; account it as CPU
	// time (the core did no useful work).
	l.accountWait(p, wake-start)
	l.stats.WaitCycles += wake - start
	// The new holder pays the line transfer when it finally wins the lock.
	l.adv(p, l.md.Atomic(p.Core(), l.line, p.Now()))
}

// Release drops the lock and hands it to the oldest waiter, if any. The
// release write and the subsequent handoff must compete with every
// spinning waiter's polling of the same line, so both the releasing core
// and the lock transfer itself are slowed in proportion to the waiter
// count — the defining non-scalable behavior (§4.1).
func (l *SpinLock) Release(p *sim.Proc) {
	if !l.held {
		panic("slock: release of unheld spin lock " + l.Name)
	}
	cost := l.md.Write(p.Core(), l.line, p.Now())
	traffic := int64(len(l.waiters)) * spinTrafficPerWaiter
	cost += traffic
	if len(l.waiters) > 0 {
		next := dequeue(&l.waiters)
		// The new holder cannot proceed until the polling storm drains.
		next.Wake(p.Now() + traffic)
	} else {
		l.held = false
	}
	l.adv(p, cost)
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

// Acquisitions returns the total acquire count.
func (l *SpinLock) Acquisitions() int64 { return l.acquCount }

// Contended returns how many acquisitions had to wait.
func (l *SpinLock) Contended() int64 { return l.contCount }

// Mutex is Linux's adaptive mutex: a thread briefly busy-waits and then
// yields the CPU (footnote 1 of the paper).
type Mutex struct {
	Name string

	// ChargeUser accounts the mutex's CPU cost as user time instead of
	// system time. Application-level locks built on futexes (PostgreSQL's
	// lock manager, §5.5) burn user cycles when they contend.
	ChargeUser bool

	md   *mem.Model
	line mem.Line

	held    bool
	waiters []*sim.Proc

	acquCount int64
	contCount int64
	stats     *prof.LockStats
}

// adv charges cycles with the configured accounting.
func (m *Mutex) adv(p *sim.Proc, cycles int64) {
	if m.ChargeUser {
		p.AdvanceUser(cycles)
	} else {
		p.Advance(cycles)
	}
}

// NewMutex allocates a mutex homed on the given chip.
func NewMutex(md *mem.Model, name string, homeChip int) *Mutex {
	return &Mutex{Name: name, md: md, line: md.Alloc(homeChip), stats: md.Prof.Lock(name)}
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
	m.acquCount++
	m.stats.Acquisitions++
	if !m.held {
		m.held = true
		m.adv(p, m.md.Atomic(p.Core(), m.line, p.Now()))
		return
	}
	m.contCount++
	m.stats.Contended++
	m.waiters = append(m.waiters, p)
	start := p.Now()
	p.Block()
	waited := p.Now() - start
	m.stats.WaitCycles += waited
	if waited <= mutexSpinWindow {
		// Spin-resolved: the wait was spent busy-waiting on the CPU.
		m.accountWaitMutex(p, waited)
		m.adv(p, m.md.Atomic(p.Core(), m.line, p.Now()))
		return
	}
	penalty := int64(len(m.waiters)) * starvationPerWaiter
	m.adv(p, mutexSpinWindow+futexWake+penalty+m.md.Atomic(p.Core(), m.line, p.Now()))
}

// accountWaitMutex attributes busy-wait time with the configured
// accounting (sleeping waits are not CPU time; spinning waits are).
func (m *Mutex) accountWaitMutex(p *sim.Proc, cycles int64) {
	if cycles <= 0 {
		return
	}
	if m.ChargeUser {
		p.AccountUser(cycles)
	} else {
		p.AccountSys(cycles)
	}
}

// Release drops the mutex and wakes the oldest sleeper. Ownership passes
// directly to the woken waiter.
func (m *Mutex) Release(p *sim.Proc) {
	if !m.held {
		panic("slock: release of unheld mutex " + m.Name)
	}
	if len(m.waiters) > 0 {
		next := dequeue(&m.waiters)
		next.Wake(p.Now())
	} else {
		m.held = false
	}
	m.adv(p, m.md.Write(p.Core(), m.line, p.Now()))
}

// Acquisitions returns the total acquire count.
func (m *Mutex) Acquisitions() int64 { return m.acquCount }

// Contended returns how many acquisitions had to sleep.
func (m *Mutex) Contended() int64 { return m.contCount }

// RWMutex is a reader-writer lock. Read acquisition modifies the shared
// reader count, so concurrent readers on different chips still ping-pong
// the lock word — the Metis region-list bottleneck (§5.8).
type RWMutex struct {
	Name string

	md   *mem.Model
	line mem.Line

	readers   int
	writer    bool
	waitQueue []rwWaiter
	acquCount int64
	contCount int64
	stats     *prof.LockStats
}

type rwWaiter struct {
	p     *sim.Proc
	write bool
}

// NewRWMutex allocates a reader-writer lock homed on the given chip.
func NewRWMutex(md *mem.Model, name string, homeChip int) *RWMutex {
	return &RWMutex{Name: name, md: md, line: md.Alloc(homeChip), stats: md.Prof.Lock(name)}
}

// RLock acquires the lock in shared mode. Even the uncontended fast path
// pays an atomic write to the shared lock word. State transitions happen
// instantaneously; the cycle cost is charged afterwards.
func (rw *RWMutex) RLock(p *sim.Proc) {
	rw.acquCount++
	rw.stats.Acquisitions++
	if !rw.writer && !rw.writerQueued() {
		rw.readers++
		p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
		return
	}
	rw.contCount++
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
		panic("slock: RUnlock with no readers on " + rw.Name)
	}
	rw.readers--
	rw.drain(p)
	p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
}

// Lock acquires the lock exclusively.
func (rw *RWMutex) Lock(p *sim.Proc) {
	rw.acquCount++
	rw.stats.Acquisitions++
	if !rw.writer && rw.readers == 0 {
		rw.writer = true
		p.Advance(rw.md.Atomic(p.Core(), rw.line, p.Now()))
		return
	}
	rw.contCount++
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
		panic("slock: Unlock of unheld RWMutex " + rw.Name)
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

// Acquisitions returns the total acquire count (read + write).
func (rw *RWMutex) Acquisitions() int64 { return rw.acquCount }

// Contended returns how many acquisitions had to block.
func (rw *RWMutex) Contended() int64 { return rw.contCount }

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

// NewGen allocates a generation counter homed on the given chip.
func NewGen(md *mem.Model, homeChip int) *Gen {
	return &Gen{md: md, line: md.Alloc(homeChip), gen: 1}
}

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
