// Package sim is a deterministic discrete-event simulation engine for
// multicore machine models.
//
// Simulated threads of execution ("procs") run as coroutines, and only one
// proc executes at a time: the next to run is always the runnable proc with
// the smallest (virtual time, sequence) key, so a run is a total order and
// is bit-for-bit reproducible. Procs interact with virtual time through
// Advance (busy CPU cycles, which occupy their core), Idle (waiting without
// using the core), Block/Wake (for locks and queues), and Now.
//
// Engines are reusable: Reset returns an engine to its post-NewEngine
// state without reallocating core arrays or proc slots. On a pooled
// engine (NewPooledEngine), a proc coroutine that finishes its body parks
// in a per-engine free list instead of exiting, so Spawn on a reused
// engine hands a parked coroutine a new body rather than starting a fresh
// one; Close releases the parked coroutines. A reused engine produces
// bit-for-bit identical runs to a fresh engine with the same seed. Plain
// NewEngine keeps the exit-on-done lifecycle, so dropping such an engine
// leaks nothing even without Close.
//
// Every proc (Spawn) runs an ordinary body function on an iter.Pull
// coroutine and may park anywhere — inside locks, queues, nested subsystem
// calls. There is no central dispatch loop: a proc that parks or finishes
// pops its successor and resumes that proc's coroutine itself, nested
// under its own. A successor that is already suspended further down that
// chain of resumers is reached by yielding back to it, so the common
// A→B→A handoff costs one coroutine switch, and no pattern costs more
// than two per handoff. A proc that stays first in dispatch order after
// advancing its clock skips the handoff entirely.
//
// Virtual time is measured in CPU cycles of the modeled 2.4 GHz machine
// (see internal/topo).
package sim

import (
	"fmt"
	"iter"
	"sort"

	"repro/internal/topo"
	"repro/internal/xrand"
)

// procState tracks where a proc is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// killed is the sentinel panic value that unwinds a proc body when its
// engine is Reset while the proc is parked mid-body (e.g. blocked at the
// time of a deadlock panic). Bodies must not recover it.
type killed struct{}

// Proc is a simulated thread of execution pinned to a core. All methods must
// be called only from within the proc's own body function, except where
// noted (Wake is called by other procs; Core/Name/Done are safe anywhere
// once the engine has stopped).
type Proc struct {
	// ID is a unique, monotonically assigned identifier.
	ID int
	// Name is a human-readable label used in deadlock reports.
	Name string

	core  int
	eng   *Engine
	time  int64
	state procState
	seq   uint64 // tie-break key, refreshed on each enqueue
	gen   uint64 // engine generation this slot was last listed in

	user, sys int64 // accumulated user/system busy cycles

	body func(*Proc)

	// The proc's coroutine (iter.Pull over loop): the proc that hands it
	// control resumes it with next, it hands control back up with yield,
	// and Reset/Close end it with stop. next is nil on a slot whose
	// coroutine was stopped; Spawn gives it a fresh one.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// onChain is set while the proc is suspended inside its own call to
	// another proc's next: its coroutine is running, not parked in
	// yield, so it is reached by yielding back up to it.
	onChain bool
}

// Engine owns the virtual clock, the runnable queue, and per-core occupancy.
//
// Scheduling is cooperative: a proc that parks or finishes pops the
// runnable proc with the smallest (time, seq) key and hands it control
// itself (handoff); Run only starts the first proc. A proc whose
// post-advance time is still earlier than every runnable proc skips the
// handoff entirely — the dispatch order is provably unchanged — so
// uncontended stretches of Advance/Idle cost no coroutine switch at all.
type Engine struct {
	// Machine is the hardware configuration being simulated.
	Machine *topo.Machine
	// Rand is the engine-wide deterministic PRNG.
	Rand *xrand.Rand

	procs    []*Proc // unique proc slots touched by the current run
	runnable procHeap
	coreFree []int64 // cycle at which each core next becomes free
	seq      uint64
	running  bool
	live     int    // procs not yet done
	now      int64  // time of the most recently dispatched proc
	spawned  int    // spawns in the current run (assigns Proc.ID)
	gen      uint64 // bumped by Reset; marks procs as listed this run

	// target is the proc chosen to run next; nil hands control back to
	// Run. panicked holds a body's panic value until Run re-raises it.
	target   *Proc
	panicked any

	// handoffs counts heap pops and switches coroutine switches since
	// the last Reset; they only feed Handoffs and Switches.
	handoffs, switches uint64

	// pooled selects the proc-coroutine lifecycle: when true (the sweep
	// workers' engines), finished procs park in freeProcs for reuse; when
	// false (plain NewEngine), their coroutines exit as soon as the body
	// is done, so an abandoned engine cannot leak parked coroutines.
	// Immutable after construction.
	pooled bool
	// freeProcs holds proc slots whose coroutines are parked between
	// bodies; Spawn pops one instead of starting a new coroutine. Pushes
	// and pops are serialized by the engine's one-proc-at-a-time dispatch
	// (or happen from Reset with no proc running), so a plain slice is
	// deterministic.
	freeProcs []*Proc

	userByCore []int64
	sysByCore  []int64
}

// NewEngine returns an engine for the given machine with a deterministic
// PRNG seed. Proc coroutines exit when their bodies finish; use
// NewPooledEngine when the engine will be Reset and reused.
func NewEngine(m *topo.Machine, seed uint64) *Engine {
	return &Engine{
		Machine:    m,
		Rand:       xrand.New(seed),
		coreFree:   make([]int64, m.NCores),
		userByCore: make([]int64, m.NCores),
		sysByCore:  make([]int64, m.NCores),
		gen:        1, // fresh proc slots carry gen 0, so they always list
	}
}

// NewPooledEngine returns a reusable engine: finished proc coroutines
// park in the engine's free list for the next Spawn instead of exiting,
// which is what makes Reset-and-rerun cycles cheap. Call Close before
// dropping a pooled engine, or its parked coroutines live for the rest of
// the process.
func NewPooledEngine(m *topo.Machine, seed uint64) *Engine {
	e := NewEngine(m, seed)
	e.pooled = true
	return e
}

// Reset returns the engine to its post-NewEngine state for the same
// machine and the given seed, without reallocating core arrays, heap
// storage, or proc slots. Every proc the previous run did not finish
// (blocked ones after a recovered deadlock panic, runnable ones after a
// panic in a body) has its coroutine stopped; on a pooled engine the slot
// returns to the free list and gets a fresh coroutine at its next Spawn.
// A reset engine produces bit-for-bit identical runs to a fresh engine
// built with NewEngine(machine, seed).
func (e *Engine) Reset(seed uint64) { e.ResetFor(e.Machine, seed) }

// ResetFor is Reset onto a (possibly different) machine: a sweep worker
// reuses one engine across core counts, so the per-core arrays are
// reallocated only when the new machine needs more cores than the engine
// has ever seen.
func (e *Engine) ResetFor(m *topo.Machine, seed uint64) {
	if e.running {
		panic("sim: Reset of a running engine")
	}
	for _, p := range e.procs {
		if p.state == stateDone {
			continue // pooled: already in freeProcs; plain: already exited
		}
		p.state = stateDone
		// A body parked mid-run sees yield return false and unwinds
		// through the killed sentinel; a coroutine that never started, or
		// whose body panicked, just ends.
		p.stop()
		p.next = nil
		e.free(p)
	}
	e.Machine = m
	e.Rand.Reseed(seed)
	e.coreFree = resizeZero(e.coreFree, m.NCores)
	e.userByCore = resizeZero(e.userByCore, m.NCores)
	e.sysByCore = resizeZero(e.sysByCore, m.NCores)
	e.procs = e.procs[:0]
	e.runnable = e.runnable[:0]
	e.seq = 0
	e.live = 0
	e.now = 0
	e.spawned = 0
	e.gen++
	e.target = nil
	e.panicked = nil
	e.handoffs, e.switches = 0, 0
}

// Close resets the engine and releases every parked proc coroutine. The
// engine remains usable (the next Spawn starts fresh coroutines); Close
// exists so an engine can be dropped without leaking its parked
// coroutines, and so tests can assert the free list drains.
func (e *Engine) Close() {
	e.Reset(1)
	for _, p := range e.freeProcs {
		p.stop() // a no-op on a coroutine Reset already stopped
	}
	e.freeProcs = e.freeProcs[:0]
}

// NumParked returns how many proc coroutine slots are parked in the free
// list awaiting reuse.
func (e *Engine) NumParked() int { return len(e.freeProcs) }

// Handoffs returns how many times the engine has popped a proc to run next
// (one per scheduling handoff) since it was made or last Reset. It only
// counts: reading it changes nothing.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// Switches returns how many coroutine switches the engine's procs and Run
// have made since it was made or last Reset. It only counts: reading it
// changes nothing.
func (e *Engine) Switches() uint64 { return e.switches }

// resizeZero returns s resized to n elements, all zero, reusing the
// backing array when it is large enough.
func resizeZero(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Spawn creates a proc pinned to the given core, starting at the given
// virtual time, with the given body. It may be called before Run or from
// inside a running proc (e.g. fork); in the latter case the child's start
// time should be >= the parent's current time to preserve causality. When
// the free list holds a parked coroutine, Spawn reuses its slot instead of
// starting a new coroutine.
func (e *Engine) Spawn(core int, name string, start int64, body func(*Proc)) *Proc {
	p := e.takeSlot(core, name, start)
	p.body = body
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.loop)
	}
	e.enqueue(p)
	return p
}

// takeSlot pops a proc slot from the free list (or allocates one), assigns
// it the next ID, and lists it as live in the current run. The caller
// installs the body and enqueues it.
func (e *Engine) takeSlot(core int, name string, start int64) *Proc {
	if core < 0 || core >= e.Machine.NCores {
		panic(fmt.Sprintf("sim: spawn on core %d of %d", core, e.Machine.NCores))
	}
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs = e.freeProcs[:n-1]
		p.ID, p.Name, p.core, p.time = e.spawned, name, core, start
		p.user, p.sys = 0, 0
	} else {
		p = &Proc{ID: e.spawned, Name: name, core: core, eng: e, time: start}
	}
	e.spawned++
	if p.gen != e.gen {
		// A slot reused within the same run is already listed.
		p.gen = e.gen
		e.procs = append(e.procs, p)
	}
	e.live++
	return p
}

// loop is the proc's coroutine: run the assigned body to completion, pop
// the next proc and hand it control, then — on a pooled engine — park in
// the free list until the slot is popped with its next body. On a plain
// engine the coroutine ends once it has nothing left to hand down; on a
// pooled one it ends only when Reset or Close stops it. The killed
// sentinel (a body parked mid-run when its coroutine was stopped) is
// absorbed here. Any other panic is recorded for Run to re-raise, and the
// coroutine ends: the panic must not travel out through next, which may
// have been called by another proc's body.
func (p *Proc) loop(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				p.eng.panicked = r
				p.eng.target = nil
			}
		}
	}()
	p.yield = yield
	for {
		p.body(p)
		p.eng.retire(p)
		p.eng.dispatch()
		if !p.handoff() {
			return
		}
	}
}

func (e *Engine) enqueue(p *Proc) {
	e.seq++
	p.seq = e.seq
	p.state = stateRunnable
	e.runnable.push(p)
}

// Run executes the simulation until every proc has exited. It panics with a
// description of the waiters if all remaining procs are blocked (deadlock),
// since that is always a bug in the model. A panic raised by a proc body
// comes out of Run on the caller's goroutine with its original value.
//
// Run pops the first proc and resumes it; from then on each proc that
// parks or finishes pops and resumes its successor (see handoff), and
// control returns here only when nothing is left to run.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	e.dispatch()
	if p := e.target; p != nil {
		e.switches++
		p.next()
	}
	if r := e.panicked; r != nil {
		e.panicked = nil
		panic(r)
	}
	if e.live > 0 {
		panic("sim: deadlock: " + e.blockedReport())
	}
}

// dispatch pops the runnable proc with the smallest (time, seq) key into
// e.target, or sets the target to nil (back to Run) when nothing is
// runnable: every proc is done, or the live ones are all blocked.
func (e *Engine) dispatch() {
	if len(e.runnable) == 0 {
		e.target = nil
		return
	}
	e.start(e.runnable.pop())
}

// start makes p, just popped, the proc to run next.
func (e *Engine) start(p *Proc) {
	e.handoffs++
	e.now = p.time
	p.state = stateRunning
	e.target = p
}

// handoff passes control from p, which has parked or finished and set
// e.target, to the target, and returns true once p is the target again.
// Each pass costs one coroutine switch: p resumes a target parked in its
// yield with next, nested under p, and otherwise — the target is one of
// p's resumers further down the chain, or Run — p yields back up to its
// own resumer, which looks again. A finished proc on a plain engine
// returns false instead of yielding up, so its coroutine ends. handoff
// also returns false when Reset or Close stopped p's coroutine.
func (p *Proc) handoff() bool {
	e := p.eng
	for {
		t := e.target
		switch {
		case t == p:
			return true
		case t != nil && !t.onChain:
			p.onChain = true
			e.switches++
			t.next()
			p.onChain = false
		case p.state == stateDone && !e.pooled:
			e.switches++
			return false
		default:
			e.switches++
			if !p.yield(struct{}{}) {
				return false
			}
		}
	}
}

// peekMin returns the runnable proc with the smallest (time, seq) key
// without removing it, or nil if nothing is runnable.
func (e *Engine) peekMin() *Proc {
	if len(e.runnable) == 0 {
		return nil
	}
	return e.runnable[0]
}

// keepRunning reports whether the calling proc, now at virtual time t, is
// still strictly ahead of every runnable proc and may therefore continue
// without yielding. Ties must yield: the queued proc was enqueued earlier,
// so its sequence number is smaller and it wins dispatch.
func (e *Engine) keepRunning(t int64) bool {
	if head := e.peekMin(); head != nil && head.time <= t {
		return false
	}
	e.now = t
	return true
}

func (e *Engine) blockedReport() string {
	var names []string
	for _, p := range e.procs {
		if p.state == stateBlocked {
			names = append(names, fmt.Sprintf("%s(core %d, t=%d)", p.Name, p.core, p.time))
		}
	}
	sort.Strings(names)
	if len(names) > 8 {
		names = append(names[:8], fmt.Sprintf("... and %d more", len(names)-8))
	}
	return fmt.Sprint(names)
}

// Now returns the virtual time of the most recently dispatched proc. It is
// mainly useful in tests and from within procs (where it equals p.Now()).
func (e *Engine) Now() int64 { return e.now }

// UserCycles returns the total user-mode busy cycles charged on a core.
func (e *Engine) UserCycles(core int) int64 { return e.userByCore[core] }

// SysCycles returns the total system-mode busy cycles charged on a core.
func (e *Engine) SysCycles(core int) int64 { return e.sysByCore[core] }

// TotalUserCycles sums user cycles over all cores.
func (e *Engine) TotalUserCycles() int64 { return sum(e.userByCore) }

// TotalSysCycles sums system cycles over all cores.
func (e *Engine) TotalSysCycles() int64 { return sum(e.sysByCore) }

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// retire ends a proc's body: account its busy time to its core, drop
// liveness, and — on a pooled engine — park the slot for reuse, so a Spawn
// later in this very run can already take it.
func (e *Engine) retire(p *Proc) {
	p.state = stateDone
	e.live--
	e.userByCore[p.core] += p.user
	e.sysByCore[p.core] += p.sys
	p.user, p.sys = 0, 0
	e.free(p)
}

// free returns a finished slot to the free list on a pooled engine. The
// slot drops its body, so a parked slot does not keep what the body
// captured (a finished point's whole kernel) alive until its next Spawn.
func (e *Engine) free(p *Proc) {
	p.body = nil
	if e.pooled {
		e.freeProcs = append(e.freeProcs, p)
	}
}

// ---- Proc methods (call only from the proc's own body) ----

// park ends the proc's current dispatch: a blocked proc waits for Wake, a
// ready one requeues at its (updated) time. The proc pops its successor
// and hands it control; park returns when the proc is popped again. (The
// no-switch case — the yielder staying first in dispatch order — is
// handled before calling here, in Engine.keepRunning.) If Reset or Close
// stopped the coroutine meanwhile, the body unwinds through the killed
// sentinel.
//
// A ready proc reaches park only after keepRunning found the heap's head
// at or before its time, so its new key is larger than the head's:
// replacing the head with it pops exactly what a push and a pop would.
func (p *Proc) park(block bool) {
	e := p.eng
	if block {
		p.state = stateBlocked
		e.dispatch()
	} else {
		e.seq++
		p.seq = e.seq
		p.state = stateRunnable
		e.start(e.runnable.replaceTop(p))
	}
	if !p.handoff() {
		panic(killed{})
	}
}

// Now returns the proc's current virtual time in cycles.
func (p *Proc) Now() int64 { return p.time }

// Core returns the core this proc is pinned to.
func (p *Proc) Core() int { return p.core }

// Chip returns the chip (NUMA node) this proc's core is on.
func (p *Proc) Chip() int { return p.eng.Machine.Chip(p.core) }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Advance charges `cycles` of busy CPU time. The core is a serial resource:
// if another proc has reserved it past this proc's current time, the proc
// first waits for the core. The charged cycles count as system time; use
// AdvanceUser for user-mode work. Negative cycles panic.
func (p *Proc) Advance(cycles int64) {
	p.advance(cycles, &p.sys)
}

// AdvanceUser charges busy cycles accounted as user-mode time.
func (p *Proc) AdvanceUser(cycles int64) {
	p.advance(cycles, &p.user)
}

// advance charges busy cycles against the proc's core. A zero-cycle charge
// is a no-op that skips the yield check entirely, so the proc keeps running
// even when another proc is runnable at the same time.
func (p *Proc) advance(cycles int64, acct *int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative advance %d by %s", cycles, p.Name))
	}
	if cycles == 0 {
		return
	}
	start := max(p.time, p.eng.coreFree[p.core])
	p.time = start + cycles
	p.eng.coreFree[p.core] = p.time
	*acct += cycles
	if p.eng.keepRunning(p.time) {
		return
	}
	p.park(false)
}

// Idle moves the proc's clock forward without occupying its core (e.g. a
// client thinking, or a process sleeping in select).
func (p *Proc) Idle(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative idle %d by %s", cycles, p.Name))
	}
	p.time += cycles
	if p.eng.keepRunning(p.time) {
		return
	}
	p.park(false)
}

// IdleUntil moves the proc's clock forward to at least t without occupying
// its core.
func (p *Proc) IdleUntil(t int64) {
	if t > p.time {
		p.time = t
	}
	if p.eng.keepRunning(p.time) {
		return
	}
	p.park(false)
}

// Block parks the proc until another proc calls Wake on it. It returns the
// proc's (updated) time at wake.
func (p *Proc) Block() int64 {
	p.park(true)
	return p.time
}

// Wake makes a blocked proc runnable at time >= at. It must be called from
// a *different*, currently running proc (or before Run starts). Waking a
// proc that is not blocked panics: the model's lock and queue code must
// never double-wake.
func (p *Proc) Wake(at int64) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: wake of non-blocked proc %s", p.Name))
	}
	if at > p.time {
		p.time = at
	}
	p.eng.enqueue(p)
}

// AccountSys adds cycles to the proc's system-time accounting without
// advancing its clock or occupying its core. Lock implementations use it to
// attribute busy-wait time that already elapsed while the proc was parked:
// the spinning core did no useful work, so the time must show up as system
// time in CPU-time breakdowns.
func (p *Proc) AccountSys(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative AccountSys %d by %s", cycles, p.Name))
	}
	p.sys += cycles
}

// AccountUser adds cycles to the proc's user-time accounting without
// advancing its clock, for analytically modeled user-mode stalls (e.g.
// cache-capacity misses folded into a phase cost).
func (p *Proc) AccountUser(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative AccountUser %d by %s", cycles, p.Name))
	}
	p.user += cycles
}

// UserTime returns the user-mode cycles charged so far by this proc.
func (p *Proc) UserTime() int64 { return p.user }

// SysTime returns the system-mode cycles charged so far by this proc.
func (p *Proc) SysTime() int64 { return p.sys }

// ---- heap plumbing ----

// procHeap is a hand-rolled binary min-heap ordered by (time, seq). The
// (time, seq) key is unique per enqueue, so the pop order — and therefore
// every trace — is independent of the heap's internal layout; the
// hand-rolling only removes container/heap's interface-call overhead from
// the two hottest operations in the engine.
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }

func (h procHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *procHeap) push(p *Proc) {
	*h = append(*h, p)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *procHeap) pop() *Proc {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = nil
	*h = s[:n]
	h.down()
	return top
}

// replaceTop pops the head and pushes p in one sift-down. p's key must be
// larger than the head's, so the head is what a push-then-pop returns.
func (h procHeap) replaceTop(p *Proc) *Proc {
	top := h[0]
	h[0] = p
	h.down()
	return top
}

// down restores the heap order after the root was replaced.
func (h procHeap) down() {
	n := len(h)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
