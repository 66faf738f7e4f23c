package kernel

import (
	"repro/internal/fprint"
	"repro/internal/mm"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/rcu"
	"repro/internal/scount"
	"repro/internal/slock"
	"repro/internal/vfs"
)

// costs is the kernel's own assembly cost table.
var costs = struct {
	// pageStructSample is the number of page structs modeled for
	// false-sharing purposes; enough to spread across chips without
	// dominating memory.
	pageStructSample int
}{pageStructSample: 256}

// fingerprint is the kernel cost domain: everything the simulated kernel
// charges per operation, composed from the subsystems this package
// assembles plus its own assembly constants. Retuning any subsystem's
// work constants changes this fingerprint, which invalidates exactly the
// cached figures that ran through the kernel.
var fingerprint = fprint.New("kernel").
	Table(costs).
	C("vfs", vfs.Fingerprint()).
	C("mm", mm.Fingerprint()).
	C("proc", proc.Fingerprint()).
	C("rcu", rcu.Fingerprint()).
	C("netsim", netsim.Fingerprint()).
	C("slock", slock.Fingerprint()).
	C("scount", scount.Fingerprint()).
	Sum()

// Fingerprint returns the canonical fingerprint of the kernel-side cost
// model. See topo.Machine.Fingerprint for how the sweep-point cache uses
// it.
func Fingerprint() string { return fingerprint }
