package mem

import (
	"repro/internal/fprint"
	"repro/internal/topo"
)

// costs is the coherence cost table: the charges, in cycles, this package
// adds on top of topo's raw latencies.
var costs = struct {
	invalidatePerSharer, atomicRMWExtra int64
}{
	// invalidatePerSharer is the extra cost charged to a writer for each
	// remote copy the coherence protocol must find and invalidate.
	invalidatePerSharer: 20,
	// atomicRMWExtra is the extra cost of a locked read-modify-write over
	// a plain store (bus lock + pipeline serialization).
	atomicRMWExtra: 10,
}

// FingerprintFor renders the memory system's cost constants as built for
// the given machine: the coherence charges this package adds on top of
// topo's raw latencies, plus the operative per-chip controller and
// per-link rates. The rates derive from the machine, but they are the
// values every queued transfer is costed at, so they are recorded here
// too: a change to how the shares are computed changes this fingerprint
// even if the machine did not move. See Machine.Fingerprint for how the
// sweep-point cache uses it.
func FingerprintFor(m *topo.Machine) string {
	return fprint.New("mem").
		Table(costs).
		C("controllerBytesPerSec", m.DRAMMaxBytesPerSec/float64(m.Chips)).
		C("linkBytesPerSec", m.LinkBytesPerSec).
		Sum()
}
