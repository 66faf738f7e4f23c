// Package rcu models Read-Copy-Update, the synchronization mechanism the
// Linux directory cache relies on for lock-free lookups (the paper cites
// RCU [39] and the dcache's RCU-based scaling [40] as prior art its fixes
// build upon).
//
// The model captures RCU's two defining cost properties:
//
//   - Read-side critical sections are free of shared-memory traffic: a
//     reader marks itself in a per-core counter (its own cache line) and
//     proceeds. This is why dcache *lookups* scale even on the stock
//     kernel, and why the residual stock bottlenecks are the reference
//     counts and per-dentry locks the paper's fixes target, not the hash
//     walk itself.
//   - Writers defer reclamation: call_rcu is cheap and asynchronous. It
//     returns a Token for the grace period the caller must wait out, and
//     the caller reclaims the object once Expired reports that every core
//     inside a read-side section at the call has left it. Tracking grace
//     periods charges nothing: it is the bookkeeping the kernel's softirq
//     does off the critical path.
package rcu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Token names the grace period a CallRCU waits for. Grace periods are
// numbered from 1 in the order they start.
type Token uint64

// RCU is one RCU domain for a machine.
type RCU struct {
	md *mem.Model

	cores []core

	// started is the last grace period begun and done the last one ended;
	// one is in progress while started > done. want is the grace period
	// the latest CallRCU waits for.
	started, done, want Token
	// waiting holds, for the grace period in progress, each core that was
	// inside a section when it began, with its exits count then.
	waiting []reader
}

// core is one core's reader state.
type core struct {
	line    mem.Line // the reader's nesting counter, homed on its chip
	nesting int      // read-side nesting depth
	// exits counts the core's outermost ReadUnlocks: a core that was
	// inside a section has left it once its count moves.
	exits uint64
}

// reader is a core inside a read-side section and its exits count.
type reader struct {
	core  int
	exits uint64
}

// New creates an RCU domain.
func New(md *mem.Model) *RCU {
	r := &RCU{md: md, cores: make([]core, md.Machine().NCores)}
	for c := range r.cores {
		r.cores[c].line = md.AllocLocal(c)
	}
	return r
}

// ReadLock enters a read-side critical section: one write to the core's
// own counter line — a cache hit in steady state, no shared traffic.
func (r *RCU) ReadLock(p *sim.Proc) {
	c := &r.cores[p.Core()]
	c.nesting++
	p.Advance(r.md.Write(p.Core(), c.line, p.Now()))
}

// ReadUnlock leaves the read-side critical section.
func (r *RCU) ReadUnlock(p *sim.Proc) {
	c := &r.cores[p.Core()]
	if c.nesting == 0 {
		panic(fmt.Sprintf("rcu: unbalanced ReadUnlock on core %d", p.Core()))
	}
	c.nesting--
	if c.nesting == 0 {
		c.exits++
	}
	p.Advance(r.md.Write(p.Core(), c.line, p.Now()))
}

// InReader reports whether the core is inside a read-side section (tests).
func (r *RCU) InReader(core int) bool { return r.cores[core].nesting > 0 }

// CallRCU registers a deferred reclamation: cheap, asynchronous, no
// waiting — the discipline the dcache uses to free dentries safely. The
// caller must already have unpublished the object, so that no reader
// entering a section from now on can find it, and may reclaim it once
// Expired reports the returned token expired. The token names the next
// grace period to begin: now, unless one is in progress, which began
// before this call and so cannot cover readers that entered since.
func (r *RCU) CallRCU(p *sim.Proc) Token {
	r.want = r.started + 1
	r.poll()
	p.Advance(costs.callRCUWork)
	return r.want
}

// Expired reports whether t's grace period has ended: every core that
// was inside a read-side section when it began has left that section.
func (r *RCU) Expired(t Token) bool {
	r.poll()
	return t <= r.done
}

// poll ends the grace period in progress once every core it waits for
// has left its section, and then begins the one the latest CallRCU wants,
// waiting for every core inside a section at that moment.
func (r *RCU) poll() {
	for {
		if r.started > r.done {
			still := r.waiting[:0]
			for _, w := range r.waiting {
				if r.cores[w.core].exits == w.exits {
					still = append(still, w)
				}
			}
			r.waiting = still
			if len(still) > 0 {
				return
			}
			r.done = r.started
		}
		if r.want <= r.started {
			return
		}
		r.started++
		for i, c := range r.cores {
			if c.nesting > 0 {
				r.waiting = append(r.waiting, reader{i, c.exits})
			}
		}
	}
}
