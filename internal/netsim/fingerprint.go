package netsim

import "repro/internal/fprint"

// costs is the network stack's cost table: the per-packet kernel work,
// besides the shared-line charges, and the packetization and steering
// parameters.
var costs = struct {
	protoWork, driverWork, copyPerByte, sockQueueOp, skbWork, mss int64
	misdirectWork, ctlPacketBytes                                 int64
	tcpHandshakePackets, dmaPayloadLines                          int
	stealProbability, misdirectProbability                        float64
}{
	protoWork:   1400, // IP + UDP/TCP protocol processing, cycles
	driverWork:  500,  // descriptor/ring handling in the driver, cycles
	copyPerByte: 16,   // bytes per cycle copying payloads
	sockQueueOp: 120,  // per-socket queue lock + enqueue (uncontended), cycles
	skbWork:     80,   // buffer init once allocated, cycles
	// mss is the TCP maximum segment size used for packetization.
	mss: 1448,
	// ctlPacketBytes is the size of a header-only TCP control packet:
	// each handshake packet at accept and the FIN exchange at close.
	ctlPacketBytes: 60,
	// misdirectWork is the extra work of a misdirected packet: socket
	// state, receive queue head and packet data bounce between the two
	// cores (~300 cycles per line), and the right core must be woken
	// remotely.
	misdirectWork: 4*300 + 800,
	// tcpHandshakePackets is the packet count charged at accept: the
	// inbound SYN and ACK plus the outbound SYN-ACK.
	tcpHandshakePackets: 3,
	// dmaPayloadLines is how many buffer cache lines we sample per
	// received packet for the DMA-landing cost.
	dmaPayloadLines: 2,
	// stealProbability approximates how often a PK accept finds its local
	// backlog empty and steals from another core (load imbalance is small
	// in the paper's closed-loop experiments).
	stealProbability: 0.05,
	// misdirectProbability is the chance a short connection's packet
	// lands on the wrong core under the stock sampling-based flow director
	// (§4.2: "it is likely that the majority of packets on a given short
	// connection will be misdirected").
	misdirectProbability: 0.6,
}

// fingerprint covers the cost table and the measured NIC envelopes
// (which are cost parameters of the card model, not workload tuning).
var fingerprint = fprint.New("netsim").
	Table(costs).
	C("memcachedNIC", MemcachedNIC()).
	C("apacheNIC", ApacheNIC()).
	Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// constants; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
