package proc

import "repro/internal/fprint"

// costs is the process cost table: the fork/exec/exit work, in cycles at
// 2.4 GHz, and the shared page structs a fork or exit touches.
var costs = struct {
	forkWork, execWork, exitWork int64
	// pageStructTouches is how many shared page structs a fork/exit
	// touches (COW refcounting).
	pageStructTouches int
}{
	forkWork:          120_000, // copy mm, file table, signal state (~50 us)
	execWork:          100_000, // load binary, set up fresh address space
	exitWork:          40_000,  // teardown besides the mapping frees
	pageStructTouches: 32,
}

// fingerprint covers the cost table and the sampled line count that
// scales the cross-core transfer charges.
var fingerprint = fprint.New("proc").
	C("ptSampleLines", ptSampleLines).
	Table(costs).
	Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// constants; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
