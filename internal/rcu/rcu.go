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
//   - Writers defer reclamation: call_rcu is cheap and asynchronous, so
//     the dentry frees on the unlink path never wait for a grace period.
package rcu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// RCU is one RCU domain for a machine.
type RCU struct {
	md *mem.Model

	// perCoreLines are the readers' per-core nesting counters.
	perCoreLines []mem.Line

	nesting []int // read-side nesting depth per core
}

// New creates an RCU domain.
func New(md *mem.Model) *RCU {
	r := &RCU{md: md}
	n := md.Machine().NCores
	r.nesting = make([]int, n)
	for c := 0; c < n; c++ {
		r.perCoreLines = append(r.perCoreLines, md.AllocLocal(c))
	}
	return r
}

// ReadLock enters a read-side critical section: one write to the core's
// own counter line — a cache hit in steady state, no shared traffic.
func (r *RCU) ReadLock(p *sim.Proc) {
	r.nesting[p.Core()]++
	p.Advance(r.md.Write(p.Core(), r.perCoreLines[p.Core()], p.Now()))
}

// ReadUnlock leaves the read-side critical section.
func (r *RCU) ReadUnlock(p *sim.Proc) {
	c := p.Core()
	if r.nesting[c] == 0 {
		panic(fmt.Sprintf("rcu: unbalanced ReadUnlock on core %d", c))
	}
	r.nesting[c]--
	p.Advance(r.md.Write(c, r.perCoreLines[c], p.Now()))
}

// InReader reports whether the core is inside a read-side section (tests).
func (r *RCU) InReader(core int) bool { return r.nesting[core] > 0 }

// CallRCU registers a deferred reclamation: cheap, asynchronous, no
// waiting — the discipline the dcache uses to free dentries safely.
func (r *RCU) CallRCU(p *sim.Proc) {
	p.Advance(costs.callRCUWork)
}
