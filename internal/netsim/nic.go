// Package netsim models the network paths the paper analyzes: the Intel
// 82599 (IXGBE) multi-queue NIC, packet buffer (skb) pools, the routing
// destination cache (dst_entry) and its reference count, protocol memory
// accounting, device-structure false sharing, and TCP accept backlogs.
//
// Figure 1 rows covered here, each decided where its structure is built
// (Accept and the DMA charges follow the layout Listen and newSkbPool
// chose, and read no flag):
//
//	Figure 1 row                        Config field           decided in
//	  - Parallel accept                 ParallelAccept         Listen
//	  - dst_entry reference counting    SloppyDstRef           NewStack
//	  - protocol memory usage tracking  SloppyProtoMem         NewStack
//	  - DMA buffer allocation           LocalDMABuf            newSkbPool (SkbPool.home)
//	  - net_device/device false sharing NetDevFalseSharingFix  newNetDev
//
// The card itself is modeled by its measured envelope: the paper reports
// that it delivers fewer packets per second as the number of configured
// virtual queues grows (memcached, §5.3) and that under the Apache packet
// mix its receive FIFO overflows at ~2.8 Mpps even though it can forward
// ~5 Mpps in isolation (§5.4). NICParams encodes those envelopes.
package netsim

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// NICParams describes the card's measured packet-processing envelope for a
// given workload mix.
type NICParams struct {
	// PeakPPS is the aggregate packets/second the card sustains with up
	// to QueueDeclineAfter queues.
	PeakPPS float64
	// QueueDeclineAfter is the queue count beyond which the card's
	// internal capacity degrades (16 for the paper's IXGBE).
	QueueDeclineAfter int
	// DeclineFrac is the total fractional capacity loss when all 48
	// queues are enabled (e.g. 0.45 = 45% slower at 48 queues).
	DeclineFrac float64
}

// MemcachedNIC is the envelope for the small-UDP workload (§5.3): the card
// keeps up through 16 queues, then handles fewer packets per second as the
// number of virtual queues increases.
func MemcachedNIC() NICParams {
	return NICParams{PeakPPS: 12.5e6, QueueDeclineAfter: 16, DeclineFrac: 0.3}
}

// ApacheNIC is the envelope for the short-TCP-connection mix (§5.4): the
// receive FIFO overflows around 2.8 Mpps regardless of queue count.
func ApacheNIC() NICParams {
	return NICParams{PeakPPS: 2.8e6, QueueDeclineAfter: 48, DeclineFrac: 0}
}

// NIC is the simulated card: a serial packet engine whose per-packet
// service time depends on the number of configured queues.
type NIC struct {
	params NICParams
	queues int
	engine *sim.Resource
	svc    int64 // cycles per packet at the current queue count
}

// NewNICFor configures the card for the given machine. The queue-count
// decline interpolates from QueueDeclineAfter to the machine's full core
// count: DeclineFrac is the capacity lost with every queue enabled.
func NewNICFor(m *topo.Machine, params NICParams, queues int) *NIC {
	n := &NIC{params: params, queues: queues, engine: sim.NewResource("ixgbe")}
	pps := params.PeakPPS
	if queues > params.QueueDeclineAfter && m.MaxCores() > params.QueueDeclineAfter {
		over := float64(queues-params.QueueDeclineAfter) /
			float64(m.MaxCores()-params.QueueDeclineAfter)
		pps *= 1 - float64(params.DeclineFrac*over) // rounded: never fused, so every GOARCH agrees
	}
	n.svc = int64(topo.CyclesPerSec() / pps)
	if n.svc < 1 {
		n.svc = 1
	}
	return n
}

// Transfer passes n packets through the card's engine; the proc waits for
// completion. Waiting does not occupy the CPU (the DMA engine runs
// asynchronously; the core blocks only when the rings are full, which is
// when this wait materializes).
func (n *NIC) Transfer(p *sim.Proc, packets int) {
	for i := 0; i < packets; i++ {
		n.engine.Use(p, n.svc)
	}
}

// PacketServiceCycles returns the per-packet service time (tests).
func (n *NIC) PacketServiceCycles() int64 { return n.svc }

// Packets returns the number of packets the card has moved.
func (n *NIC) Packets() int64 { return n.engine.Uses() }
