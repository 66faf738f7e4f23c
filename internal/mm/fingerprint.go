package mm

import "repro/internal/fprint"

// costs is the memory-management cost table: the per-operation work, in
// cycles, the mm paths charge.
var costs = struct {
	zeroBytesPerCycle, pageAllocWork, mmapWork, tlbShootdownPerCore, faultEntryWork int64
}{
	// zeroBytesPerCycle is the store bandwidth of one core zeroing memory.
	zeroBytesPerCycle: 16,
	// pageAllocWork is the bookkeeping cost of one page allocation once
	// the free-list lock is held (list unlink, compound page setup).
	pageAllocWork: 120,
	// mmapWork is the cost of region-list manipulation under the write
	// lock.
	mmapWork: 600,
	// tlbShootdownPerCore is the cost of one remote TLB invalidation IPI
	// plus its acknowledgment. Unmapping from an address space whose
	// threads run on many cores pays this per remote core — while holding
	// the region lock — which is the deep reason pedsort's threaded
	// version loses to processes (§5.7): the mmap/munmap serialization
	// grows with the thread count.
	tlbShootdownPerCore: 1_000,
	// faultEntryWork is the fixed cost of the fault trap and page-table
	// walk.
	faultEntryWork: 400,
}

// fingerprint covers the page sizes and the cost table.
var fingerprint = fprint.New("mm").
	C("PageBytes", PageBytes).
	C("SuperPageBytes", SuperPageBytes).
	Table(costs).
	Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// constants; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
