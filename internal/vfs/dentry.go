package vfs

import (
	"repro/internal/mem"
	"repro/internal/rcu"
	"repro/internal/scount"
	"repro/internal/slock"
)

// Dentry is a directory cache entry. In the stock layout its spin lock,
// reference count, and compared fields share one cache line, so reference
// churn by many cores invalidates the line lookups need. In the PK layout
// the fields line is read-mostly (cheap to share), the refcount is sloppy,
// and lookups use the lock-free generation protocol (§4.3, §4.4).
//
// A dentry embeds its inode, lock, generation counter and stock reference
// count. A sloppy reference count's counter lives apart, in a chunk of
// counters built with the dentry's chunk, and its pool lines enter the
// memory model only for the cores that touch them. An unlinked dentry
// returns its lines once its RCU grace period has ended and its last
// reference is gone, and the next Create reuses the struct and its sloppy
// counter, so a steady stream of creates and unlinks allocates nothing.
type Dentry struct {
	// Name is this component's name.
	Name string

	parent   *Dentry
	children map[string]*Dentry // nil for a file
	inode    Inode

	// fieldLines holds the line of d_name/d_inode/d_parent, the fields a
	// lookup compares; as an array it is also the set the lock-free
	// compare batch-charges.
	fieldLines [1]mem.Line
	lock       slock.SpinLock // d_lock
	gen        slock.Gen      // PK generation counter, unused in stock
	count      scount.Shared  // d_count when it is a shared counter
	ref        scount.Counter // d_count: &count, or a sloppy counter

	gp rcu.Token // the grace period an unlinked dentry waits out
}

// Inode returns the dentry's inode.
func (d *Dentry) Inode() *Inode { return &d.inode }

// Parent returns the parent dentry (nil for the root).
func (d *Dentry) Parent() *Dentry { return d.parent }

// NumChildren returns how many children the directory currently has.
func (d *Dentry) NumChildren() int { return len(d.children) }

// Ref exposes the reference counter (tests and statistics).
func (d *Dentry) Ref() scount.Counter { return d.ref }

// Inode models the fields of a tmpfs inode the workloads touch.
type Inode struct {
	// Size is the file size in bytes.
	Size int64

	sizeLine mem.Line    // i_size and neighbors, read by stat/lseek
	mu       slock.Mutex // i_mutex
}
