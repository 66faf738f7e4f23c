package vfs

import "repro/internal/fprint"

// costs is the VFS cost table: the fixed work, in cycles, every VFS path
// charges. The shared-line coherence charges themselves come from mem and
// topo, which carry their own fingerprints.
var costs = struct {
	syscallEntry, hashWork, copyPerByte, statWork, createWork, unlinkWork, listWork, listLockHold int64
}{
	syscallEntry: 150,  // trap + entry/exit bookkeeping per syscall
	hashWork:     50,   // per-component name hash + bucket probe
	copyPerByte:  16,   // bytes copied per cycle (rep movs-ish)
	statWork:     100,  // filling a stat buffer
	createWork:   5000, // inode init, dirent insertion, timestamps (~2 us)
	unlinkWork:   2500, // directory entry removal + inode teardown
	listWork:     40,   // list insert/remove once the lock is held
	listLockHold: 60,   // inode_lock/dcache_lock hold for a list insert/remove
}

var fingerprint = fprint.New("vfs").Table(costs).Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// table; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
