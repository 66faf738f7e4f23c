package rcu

import "repro/internal/fprint"

// costs is the RCU cost table: the fixed work, in cycles, besides the
// read side's own-line coherence charges, which come from mem and topo.
var costs = struct{ callRCUWork int64 }{
	callRCUWork: 40, // queueing a callback on the per-core list
}

var fingerprint = fprint.New("rcu").Table(costs).Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// table; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
