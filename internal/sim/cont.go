package sim

import "fmt"

// This file implements continuation procs: simulated threads with no
// coroutine behind them. A continuation body is a chain of segments
// (ContFunc); each segment does its real work (reads the model, mutates
// shared state, draws randomness) and then *returns* a scheduling
// directive — advance, idle, use a resource, block, jump to another
// segment, or stop — instead of calling the yielding Proc methods. Run
// applies the directive inline, so running a continuation proc costs no
// coroutine switch at all.
//
// Determinism contract: for every directive, the inline interpreter
// (Engine.runCont) applies exactly the state transitions the equivalent
// blocking call would — same core reservation arithmetic, same
// keepRunning checks, same enqueue points, hence the same (time, seq)
// evolution of the runnable heap. The coroutine fallback interpreter
// (runContOnCoroutine, used when continuation scheduling is disabled via
// SetContSched) replays the same directives through those blocking calls,
// so the two modes are bit-for-bit identical by construction.

// ContFunc is one resumable segment of a continuation proc's body. It runs
// with the proc dispatched (p.Now() is current) and must finish by
// returning a directive built with the Proc directive methods
// (AdvanceThen, IdleThen, UseThen, BlockThen, Goto, Stop). Segments must
// not call the yielding Proc methods (Advance, Idle, IdleUntil, Use,
// Block) — those panic on a continuation proc if they would need to
// yield. Non-yielding methods (Now, Core, Chip, AccountSys, AccountUser,
// Wake on another proc, Engine.Spawn/SpawnCont) are all fine mid-segment.
type ContFunc func(*Proc) Cont

type contKind int

const (
	contStop contKind = iota // retire the proc (the zero Cont)
	contGoto
	contAdvance
	contAdvanceUser
	contIdle
	contIdleUntil
	contUse
	contBlock
)

// Cont is a scheduling directive returned by a continuation segment: how
// the proc's virtual time evolves before the next segment runs. The zero
// value retires the proc, as does any charging directive with a nil next
// segment.
type Cont struct {
	kind contKind
	n    int64
	res  *Resource
	next ContFunc
}

// AdvanceThen charges busy system-mode cycles (occupying the core, exactly
// like Advance) and continues with next; nil next retires the proc after
// the charge.
func (p *Proc) AdvanceThen(cycles int64, next ContFunc) Cont {
	return Cont{kind: contAdvance, n: cycles, next: next}
}

// AdvanceUserThen is AdvanceThen with the cycles accounted as user time.
func (p *Proc) AdvanceUserThen(cycles int64, next ContFunc) Cont {
	return Cont{kind: contAdvanceUser, n: cycles, next: next}
}

// IdleThen moves the proc's clock forward without occupying its core
// (exactly like Idle) and continues with next.
func (p *Proc) IdleThen(cycles int64, next ContFunc) Cont {
	return Cont{kind: contIdle, n: cycles, next: next}
}

// IdleUntilThen moves the proc's clock to at least t (like IdleUntil) and
// continues with next.
func (p *Proc) IdleUntilThen(t int64, next ContFunc) Cont {
	return Cont{kind: contIdleUntil, n: t, next: next}
}

// UseThen queues svc cycles on the resource, advances the proc's clock to
// the completion time (exactly like Resource.Use), and continues with
// next.
func (p *Proc) UseThen(r *Resource, svc int64, next ContFunc) Cont {
	return Cont{kind: contUse, n: svc, res: r, next: next}
}

// BlockThen parks the proc until another proc calls Wake on it, then
// continues with next at the woken time; nil next retires the proc at
// wake.
func (p *Proc) BlockThen(next ContFunc) Cont {
	return Cont{kind: contBlock, next: next}
}

// Goto transfers control to another segment at the same virtual time, for
// loops written as mutually recursive segments.
func (p *Proc) Goto(next ContFunc) Cont {
	return Cont{kind: contGoto, next: next}
}

// Stop retires the proc.
func (p *Proc) Stop() Cont { return Cont{} }

// SetContSched enables (the default) or disables continuation scheduling.
// Disabled, SpawnCont bodies run on coroutine procs through the directive
// interpreter — slower, but bit-for-bit identical, which is what the
// determinism suite pins. Must not be called while the engine is running;
// the setting survives Reset.
func (e *Engine) SetContSched(on bool) {
	if e.running {
		panic("sim: SetContSched on a running engine")
	}
	e.noCont = !on
}

// SpawnCont creates a continuation proc pinned to the given core, starting
// at the given virtual time, whose body begins with the given segment. It
// schedules identically to Spawn (same ID assignment, same enqueue) but
// needs no coroutine, so spawn→run→finish costs no switch at all. Like
// Spawn it may be called before Run or from inside a running proc —
// including from inside another continuation segment.
func (e *Engine) SpawnCont(core int, name string, start int64, body ContFunc) *Proc {
	if body == nil {
		panic("sim: SpawnCont with nil body")
	}
	if e.noCont {
		return e.Spawn(core, name, start, func(p *Proc) { runContOnCoroutine(p, body) })
	}
	p := e.takeSlot(&e.freeConts, core, name, start)
	p.isCont = true
	p.cont = body
	e.enqueue(p)
	return p
}

// runCont executes a dispatched continuation proc inline: segments run
// back to back (applying their directives to the clock, the core, and
// resources) until a directive puts the proc behind another runnable proc
// — then it re-enqueues exactly where the blocking call would have yielded
// — or the proc blocks or retires. Called only from Run with the proc
// freshly popped and e.now set.
func (e *Engine) runCont(p *Proc) {
	p.state = stateRunning
	for {
		if p.cont == nil {
			// The final charging directive already applied; the proc was
			// re-enqueued to keep heap evolution identical to a coroutine
			// body yielding inside its last blocking call, and retires now.
			e.retire(p)
			return
		}
		c := p.cont(p)
		checkYield := true
		switch c.kind {
		case contStop:
			e.retire(p)
			return
		case contBlock:
			p.cont = c.next
			p.state = stateBlocked
			return
		case contGoto:
			if c.next == nil {
				e.retire(p)
				return
			}
			p.cont = c.next
			continue
		case contAdvance:
			checkYield = p.chargeCore(c.n, &p.sys)
		case contAdvanceUser:
			checkYield = p.chargeCore(c.n, &p.user)
		case contIdle:
			if c.n < 0 {
				panic(fmt.Sprintf("sim: negative idle %d by %s", c.n, p.Name))
			}
			p.time += c.n
		case contIdleUntil:
			if c.n > p.time {
				p.time = c.n
			}
		case contUse:
			if end := c.res.reserve(p.time, c.n); end > p.time {
				p.time = end
			}
		}
		p.cont = c.next
		if !checkYield || e.keepRunning(p.time) {
			if p.cont == nil {
				e.retire(p)
				return
			}
			continue
		}
		e.enqueue(p)
		return
	}
}

// runContOnCoroutine interprets a continuation body on a coroutine proc
// by replaying each directive through the equivalent blocking
// call. Used when continuation scheduling is disabled (SetContSched), so
// the determinism suite can pin the two modes against each other.
func runContOnCoroutine(p *Proc, fn ContFunc) {
	for {
		c := fn(p)
		switch c.kind {
		case contStop:
			return
		case contBlock:
			p.Block()
		case contGoto:
		case contAdvance:
			p.advance(c.n, &p.sys)
		case contAdvanceUser:
			p.advance(c.n, &p.user)
		case contIdle:
			p.Idle(c.n)
		case contIdleUntil:
			p.IdleUntil(c.n)
		case contUse:
			c.res.Use(p, c.n)
		}
		if c.next == nil {
			return
		}
		fn = c.next
	}
}
