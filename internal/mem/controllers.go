package mem

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// rated is a serially shared hardware interface that moves bytes at a
// fixed rate: the common queueing substance of a DRAM controller and an
// HT link. Demand above the rate queues on the underlying sim.Resource.
type rated struct {
	res            *sim.Resource
	bytesPerCycle  float64
	ratedPerCycle  float64 // the healthy rate scale() restores from
	bytesRequested int64
}

func newRated(name string, bytesPerSec, cyclesPerSec float64) rated {
	bpc := bytesPerSec / cyclesPerSec
	return rated{
		res:           sim.NewResource(name),
		bytesPerCycle: bpc,
		ratedPerCycle: bpc,
	}
}

// scale sets the interface's current rate to frac of its healthy rated
// bandwidth — fault injection's throttle. frac must be positive: a zero
// rate would make every transfer infinite; outright removal is a routing
// decision (see Controllers.SetRoutes), not a rate.
func (r *rated) scale(frac float64) {
	if frac <= 0 {
		panic(fmt.Sprintf("mem: rate scale %g must be positive on %s", frac, r.res.Name))
	}
	r.bytesPerCycle = r.ratedPerCycle * frac
}

// CyclesFor returns how many cycles moving n bytes takes at the full
// rate, without queueing (for analytic uses).
func (r *rated) CyclesFor(n int64) int64 {
	svc := int64(float64(n) / r.bytesPerCycle)
	if svc < 1 {
		svc = 1
	}
	return svc
}

// Transfer makes p wait for and then occupy this interface long enough to
// move n bytes. The wait does not occupy p's core: the core stalls on
// outstanding memory requests, which the model treats like any other
// device wait.
func (r *rated) Transfer(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	r.bytesRequested += n
	r.res.Use(p, r.CyclesFor(n))
}

// BytesRequested returns the total bytes charged to this interface.
func (r *rated) BytesRequested() int64 { return r.bytesRequested }

// BusyCycles returns how long the interface has been occupied.
func (r *rated) BusyCycles() int64 { return r.res.BusyCycles() }

// Controller is one chip's queued memory controller, moving bytes at the
// chip's share of the machine's DRAM rate. Bulk data movement (Metis's
// reduce phase, super-page zeroing, compiler streams) charges bytes
// against the controller of the chip whose DRAM holds the data; when
// demand on one chip exceeds its rate, procs queue there — and only
// there. This is how the §5.8 DRAM saturation localizes to a node instead
// of dimming one machine-wide envelope.
type Controller struct {
	rated
	chip int
}

func newController(chip int, bytesPerSec, cyclesPerSec float64) *Controller {
	return &Controller{
		rated: newRated(fmt.Sprintf("dram-chip%d", chip), bytesPerSec, cyclesPerSec),
		chip:  chip,
	}
}

// Chip returns the chip this controller serves.
func (mc *Controller) Chip() int { return mc.chip }

// Link is one HyperTransport link of the chip ring, modeled as a queued
// finite-rate resource exactly like a memory controller: every cross-chip
// transfer charges its full byte count to each link on its route, so heavy
// striped or remote traffic contends on the paths between chips, not just
// at the destination controller (§5.1, §5.8).
type Link struct {
	rated
	id int
}

func newLink(id int, bytesPerSec, cyclesPerSec float64) *Link {
	return &Link{
		rated: newRated(fmt.Sprintf("ht-link%d", id), bytesPerSec, cyclesPerSec),
		id:    id,
	}
}

// ID returns the link's index in the machine's link graph (see
// Machine.LinkEnds).
func (ln *Link) ID() int { return ln.id }

// Controllers is the machine's NUMA memory system: one queued controller
// per chip, joined by the HyperTransport link ring. Callers route each
// transfer by the chip whose DRAM homes the data; cross-chip transfers
// queue on every link of their route and additionally pay the
// HyperTransport hop latency.
type Controllers struct {
	mach  *topo.Machine
	chips []*Controller
	links []*Link
	// routes is the active chip-to-chip routing. The default table is the
	// machine's healthy link graph; fault injection swaps in a table that
	// routes around dead links (SetRoutes), and every transfer — CPU and
	// DMA — follows it, paying the longer detour's queueing and hop
	// latency.
	routes *topo.RouteTable
}

// NewControllersFor returns the given machine's memory system: one
// controller per chip splitting the machine's aggregate DRAM rate, joined
// by the machine's link graph at its per-link rates. On the paper's host
// that is eight controllers, each with a 1/8 share of the measured
// 51.5 GB/s aggregate, joined by eight HT links at
// topo.HTLinkBytesPerSec each.
func NewControllersFor(m *topo.Machine) *Controllers {
	return NewControllersRateFor(m, m.DRAMMaxBytesPerSec)
}

// NewControllersRateFor builds per-chip controllers splitting the given
// aggregate rate (bytes/second) evenly across the machine's chips. Link
// rates scale with the controller share so each link:controller bandwidth
// ratio matches the machine description's.
func NewControllersRateFor(m *topo.Machine, aggregateBytesPerSec float64) *Controllers {
	cs := &Controllers{
		mach:   m,
		chips:  make([]*Controller, m.Chips),
		links:  make([]*Link, m.NumLinks()),
		routes: m.DefaultRoutes(),
	}
	cps := topo.CyclesPerSec()
	for i := range cs.chips {
		cs.chips[i] = newController(i, aggregateBytesPerSec/float64(m.Chips), cps)
	}
	for i := range cs.links {
		linkScale := m.LinkRate(i) / m.DRAMMaxBytesPerSec
		cs.links[i] = newLink(i, aggregateBytesPerSec*linkScale, cps)
	}
	return cs
}

// Machine returns the machine whose memory system this is.
func (cs *Controllers) Machine() *topo.Machine { return cs.mach }

// Link returns the HT link with the given topo ring index.
func (cs *Controllers) Link(i int) *Link {
	if i < 0 || i >= len(cs.links) {
		panic(fmt.Sprintf("mem: link %d out of range", i))
	}
	return cs.links[i]
}

// Chip returns the controller serving the given chip's DRAM.
func (cs *Controllers) Chip(i int) *Controller {
	if i < 0 || i >= len(cs.chips) {
		panic(fmt.Sprintf("mem: controller for chip %d out of range", i))
	}
	return cs.chips[i]
}

// SetRoutes swaps the active routing, typically for a table that avoids
// links a fault plan killed. In-flight queueing on the old path is
// unaffected (bytes already charged stay charged); every transfer issued
// after the swap follows the new table.
func (cs *Controllers) SetRoutes(rt *topo.RouteTable) {
	if rt == nil {
		rt = cs.mach.DefaultRoutes()
	}
	cs.routes = rt
}

// ScaleLink throttles the given HT link to frac of its rated bandwidth
// (fault injection). frac must be positive; removing a link outright is
// expressed through SetRoutes with a table that avoids it.
func (cs *Controllers) ScaleLink(i int, frac float64) {
	cs.Link(i).scale(frac)
}

// ScaleController throttles the given chip's memory controller to frac of
// its rated bandwidth (fault injection). frac must be positive: a chip's
// DRAM can be slow, never unreachable.
func (cs *Controllers) ScaleController(chip int, frac float64) {
	cs.Chip(chip).scale(frac)
}

// transferVia is the one route-charging rule: n bytes moving from chip
// origin to the DRAM of chip home queue on every HT link along the route,
// then on home's controller. Both CPU transfers and device DMA charge
// through here so the rule cannot diverge between them.
func (cs *Controllers) transferVia(p *sim.Proc, origin, home int, n int64) {
	for _, l := range cs.routes.Route(origin, home) {
		cs.links[l].Transfer(p, n)
	}
	cs.Chip(home).Transfer(p, n)
}

// Transfer moves n bytes between the DRAM of chip home and the core
// running p: when the requester sits on a different chip, the bytes queue
// on every HT link along the route before queueing on home's controller,
// and the requester pays the hop latency on top of the completions.
// Saturating one chip's controller never slows transfers homed on other
// chips, but transfers whose routes share a link do contend there.
func (cs *Controllers) Transfer(p *sim.Proc, home int, n int64) {
	if n <= 0 {
		return
	}
	me := p.Chip()
	cs.transferVia(p, me, home, n)
	// Hop latency follows the active route's length: a rerouted detour
	// around a dead link costs its real distance, not the healthy ring's.
	if hops := cs.routes.Hops(me, home); hops > 0 {
		p.Idle(cs.mach.HTLatency(hops))
	}
}

// DMAWrite charges the bandwidth of a device depositing n bytes into the
// DRAM of chip home: DMA enters the interconnect at the I/O hub's chip
// (topo.IOHubChip) and traverses the links from there to home before
// occupying home's controller. p is the driver proc handling the packet;
// it waits for the landing (the driver polls the ring descriptor until the
// payload is visible) but pays no hop latency — that cost shows up when a
// core first touches the lines (Model.DMAWrite, the coherence-state half).
func (cs *Controllers) DMAWrite(p *sim.Proc, home int, n int64) {
	if n <= 0 {
		return
	}
	cs.transferVia(p, cs.mach.IOHubChip, home, n)
}

// DMARead charges the bandwidth of a device reading n bytes out of the
// DRAM of chip home — the transmit half of device DMA, mirroring DMAWrite:
// the card pulls a send buffer's payload through home's controller and
// across every HT link from home to the I/O hub's chip. p is the driver
// proc that queued the packet; it waits for the card to drain the buffer
// (the driver cannot recycle the skb before the read completes) but pays
// no hop latency — the CPU never touches the bytes on this path.
func (cs *Controllers) DMARead(p *sim.Proc, home int, n int64) {
	if n <= 0 {
		return
	}
	for _, l := range cs.routes.Route(home, cs.mach.IOHubChip) {
		cs.links[l].Transfer(p, n)
	}
	cs.Chip(home).Transfer(p, n)
}

// TransferLocal moves n bytes through the controller of p's own chip — the
// default placement for data a core allocated and first touched locally.
func (cs *Controllers) TransferLocal(p *sim.Proc, n int64) {
	cs.Transfer(p, p.Chip(), n)
}

// TransferStriped spreads n bytes evenly across every chip's controller,
// the behavior of page-interleaved ("numactl --interleave") placement: each
// slice queues on its own controller and remote slices pay their hop
// latency.
func (cs *Controllers) TransferStriped(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	slice := n / int64(len(cs.chips))
	rem := n - slice*int64(len(cs.chips))
	// Start at the local chip so a sub-chip-count remainder lands locally.
	me := p.Chip()
	for i := 0; i < len(cs.chips); i++ {
		chip := (me + i) % len(cs.chips)
		bytes := slice
		if i == 0 {
			bytes += rem
		}
		cs.Transfer(p, chip, bytes)
	}
}

// BytesRequested returns the total bytes charged across all controllers.
func (cs *Controllers) BytesRequested() int64 {
	var t int64
	for _, mc := range cs.chips {
		t += mc.bytesRequested
	}
	return t
}

// Utilization returns each controller's busy fraction over the first
// `elapsed` cycles of the run. A chip at ~1.0 while its neighbors idle is
// the localized saturation the per-chip refactor exists to show.
func (cs *Controllers) Utilization(elapsed int64) []float64 {
	out := make([]float64, len(cs.chips))
	if elapsed <= 0 {
		return out
	}
	for i, mc := range cs.chips {
		out[i] = float64(mc.res.BusyCycles()) / float64(elapsed)
	}
	return out
}

// LinkBytesRequested returns the total bytes charged across all HT links.
// A transfer over h hops contributes h times its byte count, once per link
// it crosses.
func (cs *Controllers) LinkBytesRequested() int64 {
	var t int64
	for _, ln := range cs.links {
		t += ln.bytesRequested
	}
	return t
}

// LinkUtilization returns each HT link's busy fraction over the first
// `elapsed` cycles of the run. The busiest link pinned at ~1.0 while
// controllers idle is interconnect saturation — the §5.1/§5.8 effect the
// link layer exists to show.
func (cs *Controllers) LinkUtilization(elapsed int64) []float64 {
	out := make([]float64, len(cs.links))
	if elapsed <= 0 {
		return out
	}
	for i, ln := range cs.links {
		out[i] = float64(ln.res.BusyCycles()) / float64(elapsed)
	}
	return out
}

// MissRatio is the analytic shared-cache capacity model used for workloads
// whose working set grows with core count (pedsort's msort phase, §5.7).
// It returns the fraction of accesses that miss a cache of `capacity` bytes
// given a resident working set of `ws` bytes, assuming a uniform reuse
// pattern: 0 when the set fits, approaching 1 as the set dwarfs the cache.
func MissRatio(ws, capacity int64) float64 {
	if ws <= capacity || ws <= 0 {
		return 0
	}
	return float64(ws-capacity) / float64(ws)
}
