// Package scount provides the simulated reference counters at the heart of
// the paper's contribution (§4.3).
//
// A Shared counter is the stock kernel's single atomically updated word:
// every increment and decrement from any core serializes on one cache line,
// which is precisely the dentry/vfsmount/dst_entry bottleneck.
//
// A Sloppy counter represents one logical counter as a central shared count
// plus a per-core count of *spare references*. A core acquiring a reference
// first tries to take a spare from its local counter (a core-local cache
// hit); only when it has none does it touch the central counter. Releases
// put references back into the local spare pool, and pools above a
// threshold are reconciled back to the central counter.
//
// Invariant (stated in the paper): the central count equals the number of
// references in use plus the sum of all per-core spare counts. Check
// verifies it after every operation in tests.
//
// A Sloppy's host cost is small and fixed: its per-core pools are one
// array, and a pool's line enters the memory model only when its core
// first touches it (mem.Shadow). NewSloppies builds a batch of counters
// in two heap objects, which is how vfs gives its dentries their counters.
package scount

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Counter is the common interface of Shared and Sloppy reference counters,
// letting kernel objects (dentries, vfsmounts, dst entries) switch
// disciplines with a config flag.
type Counter interface {
	// Acquire takes v references.
	Acquire(p *sim.Proc, v int64)
	// Release returns v references.
	Release(p *sim.Proc, v int64)
	// InUse returns the number of references currently held.
	InUse() int64
	// Reconcile computes the true logical value (expensive for Sloppy;
	// used on paths like deallocation decisions).
	Reconcile(p *sim.Proc) int64
}

// Shared is a single shared atomic reference counter.
type Shared struct {
	line  mem.Line
	md    *mem.Model
	value int64 // references issued (in use)
}

// NewShared returns a shared counter homed on the given chip. It returns
// a value, so the kernel object that owns the counter embeds it instead
// of pointing at a separate allocation.
func NewShared(md *mem.Model, homeChip int) Shared {
	return NewSharedAt(md, md.Alloc(homeChip))
}

// NewSharedAt returns a shared counter on an existing cache line, modeling
// a refcount embedded in a structure alongside other hot fields.
func NewSharedAt(md *mem.Model, line mem.Line) Shared {
	return Shared{md: md, line: line}
}

// Line returns the cache line holding the counter.
func (s *Shared) Line() mem.Line { return s.line }

// Acquire atomically increments the counter; all cores serialize here.
func (s *Shared) Acquire(p *sim.Proc, v int64) {
	s.value += v
	p.Advance(s.md.Atomic(p.Core(), s.line, p.Now()))
}

// Release atomically decrements the counter.
func (s *Shared) Release(p *sim.Proc, v int64) {
	if s.value < v {
		panic(fmt.Sprintf("scount: releasing %d of %d references", v, s.value))
	}
	s.value -= v
	p.Advance(s.md.Atomic(p.Core(), s.line, p.Now()))
}

// InUse returns the current reference count.
func (s *Shared) InUse() int64 { return s.value }

// Reconcile reads the counter (cheap for the shared discipline).
func (s *Shared) Reconcile(p *sim.Proc) int64 {
	p.Advance(s.md.Read(p.Core(), s.line, p.Now()))
	return s.value
}

// DefaultSpareThreshold is the per-core spare cap above which spares are
// returned to the central counter.
const DefaultSpareThreshold = 8

// Sloppy is the paper's sloppy counter.
type Sloppy struct {
	md *mem.Model

	central     int64 // value of the shared central counter
	centralLine mem.Line

	cores []sloppyCore // per-core spare pools, indexed by core

	// shadow is the coherence state of every pool line not yet
	// allocated: only Reconcile has read them.
	shadow mem.Shadow

	inUse int64 // references handed out (model bookkeeping, not a kernel field)

	// Threshold is the per-core spare cap; see DefaultSpareThreshold.
	Threshold int64

	centralOps, localOps int64
}

// sloppyCore is one core's spare pool: the spare references it holds and
// the cache line, homed on that core's chip, that holds the count
// (mem.NoLine until the core first touches its pool).
type sloppyCore struct {
	spares int64
	line   mem.Line
}

// NewSloppy allocates a sloppy counter: a central line on the given home
// chip, and one spare pool per core. A pool's line, homed on its core's
// chip, is allocated when that core first touches the pool; until then
// the counter's shadow stands in for it, so a counter costs directory
// lines only for the cores that use it.
func NewSloppy(md *mem.Model, homeChip int) *Sloppy {
	s := &NewSloppies(md, 1)[0]
	s.Reset(homeChip)
	return s
}

// NewSloppies allocates n sloppy counters in two heap objects: the
// counters, and one array that holds every counter's per-core pools. It
// allocates no lines, so a counter is not usable until Reset gives it its
// central line; a kernel that builds many counted objects (dentries)
// takes their counters from such a batch.
func NewSloppies(md *mem.Model, n int) []Sloppy {
	nc := md.Machine().NCores
	ss := make([]Sloppy, n)
	pools := make([]sloppyCore, n*nc)
	for i := range ss {
		ss[i] = Sloppy{md: md, cores: pools[i*nc : (i+1)*nc : (i+1)*nc]}
	}
	return ss
}

// Reset makes s the counter NewSloppy would return, on a new central line
// homed on homeChip, keeping its pool array. A counter from NewSloppies
// is reset once before its first use; a counter that held lines must have
// returned them with Free first.
func (s *Sloppy) Reset(homeChip int) {
	cores := s.cores
	for c := range cores {
		cores[c] = sloppyCore{line: mem.NoLine}
	}
	s.shadow.Reset()
	*s = Sloppy{
		md:          s.md,
		centralLine: s.md.Alloc(homeChip),
		cores:       cores,
		shadow:      s.shadow,
		Threshold:   DefaultSpareThreshold,
	}
}

// Free returns the counter's lines, the central one and each pool line a
// core touched, to the memory model. The counter must not be used again
// until Reset.
func (s *Sloppy) Free() {
	s.md.Free(s.centralLine)
	for c := range s.cores {
		if l := s.cores[c].line; l != mem.NoLine {
			s.md.Free(l)
		}
	}
}

// pool returns core c's spare pool with its line allocated.
func (s *Sloppy) pool(c int) *sloppyCore {
	pool := &s.cores[c]
	if pool.line == mem.NoLine {
		pool.line = s.md.AllocShadow(s.md.Machine().Chip(c), &s.shadow)
	}
	return pool
}

// Acquire takes v references: from the local spare pool when possible,
// otherwise from the central counter.
func (s *Sloppy) Acquire(p *sim.Proc, v int64) {
	c := p.Core()
	s.inUse += v
	if s.cores[c].spares >= v {
		// Local decrement: typically a cache hit on this core's own line.
		pool := s.pool(c)
		pool.spares -= v
		s.localOps++
		p.Advance(s.md.Write(c, pool.line, p.Now()))
		return
	}
	// Not enough spares: acquire from the central counter. (Any local
	// remainder stays; we take the whole v centrally, matching the
	// paper's description.)
	s.central += v
	s.centralOps++
	p.Advance(s.md.Atomic(c, s.centralLine, p.Now()))
}

// Release returns v references to the local spare pool, reconciling back to
// the central counter when the pool exceeds the threshold.
func (s *Sloppy) Release(p *sim.Proc, v int64) {
	if s.inUse < v {
		panic(fmt.Sprintf("scount: releasing %d of %d references", v, s.inUse))
	}
	c := p.Core()
	pool := s.pool(c)
	s.inUse -= v
	pool.spares += v
	s.localOps++
	cost := s.md.Write(c, pool.line, p.Now())
	if pool.spares > s.Threshold {
		// Return the excess above half the threshold to the central
		// counter in one batch.
		give := pool.spares - s.Threshold/2
		pool.spares -= give
		s.central -= give
		s.centralOps++
		cost += s.md.Atomic(c, s.centralLine, p.Now())
	}
	p.Advance(cost)
}

// InUse returns the number of references currently held.
func (s *Sloppy) InUse() int64 { return s.inUse }

// Reconcile computes the true value by visiting every per-core line — the
// expensive operation the paper says makes sloppy counters suitable only
// for rarely deallocated objects. A pool whose line is not yet allocated
// is charged as the read of that line, from the shadow.
func (s *Sloppy) Reconcile(p *sim.Proc) int64 {
	c, now := p.Core(), p.Now()
	var cost int64
	total := s.central
	for u, pool := range s.cores {
		if pool.line == mem.NoLine {
			cost += s.md.ReadShadow(c, &s.shadow, s.md.Machine().Chip(u))
		} else {
			cost += s.md.Read(c, pool.line, now)
		}
		total -= pool.spares
	}
	s.md.ShareShadow(c, &s.shadow)
	cost += s.md.Read(c, s.centralLine, now)
	p.Advance(cost)
	return total
}

// Check verifies the sloppy counter invariant: central == in-use + spares.
// It returns an error rather than panicking so property tests can report
// the broken state.
func (s *Sloppy) Check() error {
	var spares int64
	for _, pool := range s.cores {
		spares += pool.spares
	}
	if s.central != s.inUse+spares {
		return fmt.Errorf("scount: invariant broken: central=%d inUse=%d spares=%d",
			s.central, s.inUse, spares)
	}
	return nil
}

// CentralOps returns how many operations touched the central counter.
func (s *Sloppy) CentralOps() int64 { return s.centralOps }

// LocalOps returns how many operations stayed core-local.
func (s *Sloppy) LocalOps() int64 { return s.localOps }

var (
	_ Counter = (*Shared)(nil)
	_ Counter = (*Sloppy)(nil)
)
