package netsim

import (
	"strconv"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/scount"
	"repro/internal/sim"
	"repro/internal/slock"
	"repro/internal/vfs"
)

// Config selects stock vs PK behavior for the network stack.
type Config struct {
	// ParallelAccept uses per-core connection backlog queues for
	// listening sockets, with stealing from other cores' queues (§4.2).
	ParallelAccept bool
	// SloppyDstRef reference-counts routing entries with sloppy counters.
	SloppyDstRef bool
	// SloppyProtoMem tracks per-protocol memory with sloppy counters.
	SloppyProtoMem bool
	// LocalDMABuf allocates packet buffers from per-core pools on the
	// local memory node instead of one pool on the I/O hub's node.
	LocalDMABuf bool
	// NetDevFalseSharingFix places read-only net_device/device fields on
	// their own cache lines.
	NetDevFalseSharingFix bool
	// MisdirectProb overrides the probability that a short connection's
	// packet is steered to the wrong core under the sampling-based flow
	// director; NewStack turns zero into costs.misdirectProbability. Used
	// by the flow-director ablation; ignored when ParallelAccept is set.
	MisdirectProb float64
}

// Stack is one machine's network stack instance.
type Stack struct {
	cfg  Config
	md   *mem.Model
	fs   *vfs.FS
	nic  *NIC             // nil for loopback-only use (Exim)
	dram *mem.Controllers // nil to skip DMA payload bandwidth charging

	skb      *SkbPool
	dst      scount.Counter // the hot route's dst_entry refcount
	protoMem scount.Counter // per-protocol memory accounting (TCP or UDP)
	netdev   *netDev        // net_device + device structures

	// faults, when non-nil, is the live NIC fault state (drop/dup
	// probabilities) the kernel's fault plan controls; timed events mutate
	// the pointed-to struct mid-run. Nil or all-zero means a healthy card
	// and, crucially, no PRNG draws: a clean run's random stream is
	// bit-identical with and without the fault machinery compiled in.
	faults *fault.NetFaults

	misdirected int64
	retries     int64 // packets resent after a drop (= attempts lost)
	duplicated  int64 // spurious duplicate deliveries processed
}

// netDev models the net_device/device structure pair. Every packet reads
// read-only configuration fields and bumps a statistics counter: core c
// bumps the one on stats line c mod the number of stats lines. In the
// stock layout there is one stats line and it is the configuration line,
// so the stats writes invalidate the configuration for every other core
// (§4.6, §5.3:
// "removing a single falsely shared cache line in net_device increased
// throughput by 30% at 48 cores"). The PK fix isolates the read-only
// fields on their own line; the driver's statistics are kept per hardware
// queue, i.e. per core. Only the constructor chooses the layout.
type netDev struct {
	md        *mem.Model
	cfgLine   mem.Line
	statLines []mem.Line
}

func newNetDev(md *mem.Model, padded bool) *netDev {
	nd := &netDev{md: md, cfgLine: md.Alloc(0)}
	if !padded {
		md.Label(nd.cfgLine, "net_device.config+stats")
		nd.statLines = []mem.Line{nd.cfgLine}
		return nd
	}
	n := md.Machine().NCores
	nd.statLines = make([]mem.Line, n)
	for c := 0; c < n; c++ {
		nd.statLines[c] = md.AllocLocal(c)
	}
	return nd
}

// packetTouch charges the per-packet device accesses: config read + stats
// update.
func (nd *netDev) packetTouch(p *sim.Proc) int64 {
	c := p.Core()
	return nd.md.Read(c, nd.cfgLine, p.Now()) +
		nd.md.Write(c, nd.statLines[c%len(nd.statLines)], p.Now())
}

// NewStack builds a stack. fs provides socket (anonymous) inodes; nic may
// be nil when all traffic is loopback. dram, if non-nil, is the NUMA
// memory system the card's DMA payload bandwidth is charged against.
func NewStack(md *mem.Model, fs *vfs.FS, nic *NIC, dram *mem.Controllers, cfg Config) *Stack {
	if cfg.MisdirectProb == 0 {
		cfg.MisdirectProb = costs.misdirectProbability
	}
	s := &Stack{cfg: cfg, md: md, fs: fs, nic: nic, dram: dram}
	s.skb = newSkbPool(md, cfg.LocalDMABuf)
	if cfg.SloppyDstRef {
		s.dst = scount.NewSloppy(md, 0)
	} else {
		dst := scount.NewShared(md, 0)
		md.Label(dst.Line(), "dst_entry.refcnt")
		s.dst = &dst
	}
	if cfg.SloppyProtoMem {
		s.protoMem = scount.NewSloppy(md, 0)
	} else {
		pm := scount.NewShared(md, 0)
		md.Label(pm.Line(), "proto.memory_allocated")
		s.protoMem = &pm
	}
	s.netdev = newNetDev(md, cfg.NetDevFalseSharingFix)
	return s
}

// Misdirected returns how many packets were steered to the wrong core.
func (s *Stack) Misdirected() int64 { return s.misdirected }

// SetFaults attaches the live NIC fault state. The pointer is shared with
// the kernel's fault plan so timed events take effect without the stack
// knowing; nil detaches (healthy card).
func (s *Stack) SetFaults(f *fault.NetFaults) { s.faults = f }

// Retries returns how many packets were resent after a drop (every lost
// attempt forces exactly one resend, so this also counts drops).
func (s *Stack) Retries() int64 { return s.retries }

// Duplicated returns how many spurious duplicate deliveries were
// processed and discarded.
func (s *Stack) Duplicated() int64 { return s.duplicated }

// lostAttempts returns how many consecutive sends of one packet the card
// drops before a successful delivery, bounded by the retry budget: the
// packet's fault.RetryMaxAttempts'th send always delivers, so closed-loop
// clients pay bounded timeouts instead of wedging on a PRNG streak. With
// no drop fault active it returns 0 without consuming randomness.
func (s *Stack) lostAttempts(p *sim.Proc) int {
	f := s.faults
	if f == nil || f.Drop <= 0 || s.nic == nil {
		return 0
	}
	lost := 0
	for lost < fault.RetryMaxAttempts-1 && p.Engine().Rand.Float64() < f.Drop {
		lost++
	}
	return lost
}

// chargeLostAttempts pays for each dropped send of a packet: the frame
// reaches the card and dies there (FIFO overflow, corrupt lane), so each
// attempt costs a card slot plus driver work, and the sender notices only
// at its retransmission timeout — exponential backoff, capped. The
// timeout idles the proc, not its core.
func (s *Stack) chargeLostAttempts(p *sim.Proc, lost int) {
	for i := 0; i < lost; i++ {
		s.nic.Transfer(p, 1)
		p.Advance(costs.driverWork)
		p.Idle(fault.Backoff(i))
		s.retries++
	}
}

// chargeDuplicate processes a spurious duplicate delivery when the dup
// fault fires: the copy occupies the card and the driver, and protocol
// processing discards it as a duplicate after header work — no payload
// copy, no socket queue. No PRNG draw happens unless the fault is active.
func (s *Stack) chargeDuplicate(p *sim.Proc) {
	f := s.faults
	if f == nil || f.Dup <= 0 || s.nic == nil {
		return
	}
	if p.Engine().Rand.Float64() < f.Dup {
		s.nic.Transfer(p, 1)
		p.Advance(costs.driverWork + costs.protoWork/4)
		s.duplicated++
	}
}

// SkbPool exposes the packet-buffer pool (statistics).
func (s *Stack) SkbPool() *SkbPool { return s.skb }

// rxPacket charges the receive path for one packet of n payload bytes.
func (s *Stack) rxPacket(p *sim.Proc, n int64) {
	if s.nic != nil {
		// Inbound drops: the client's packet died at the card; the client
		// resends after its timeout and the server's closed loop simply
		// sees the request later.
		s.chargeLostAttempts(p, s.lostAttempts(p))
		s.nic.Transfer(p, 1)
		if s.dram != nil {
			// The card DMAs the payload from the I/O hub into the
			// buffer's home DRAM; the bytes occupy every HT link between
			// the hub and that chip.
			s.dram.DMAWrite(p, s.skb.home[p.Core()], n)
		}
	}
	s.skb.Get(p)
	s.skb.DMARecv(p)
	p.Advance(s.netdev.packetTouch(p) + costs.driverWork)
	s.protoMem.Acquire(p, 1)
	s.dst.Acquire(p, 1)
	p.Advance(costs.protoWork + n/costs.copyPerByte + costs.sockQueueOp)
	s.dst.Release(p, 1)
	s.protoMem.Release(p, 1)
	s.skb.Put(p)
	// A duplicated retransmission of an already-delivered packet may
	// arrive and be discarded after header processing.
	s.chargeDuplicate(p)
}

// txPacket charges the transmit path for one packet of n payload bytes.
func (s *Stack) txPacket(p *sim.Proc, n int64) {
	s.skb.Get(p)
	p.Advance(s.netdev.packetTouch(p) + costs.driverWork)
	s.protoMem.Acquire(p, 1)
	s.dst.Acquire(p, 1)
	p.Advance(costs.protoWork + n/costs.copyPerByte)
	s.dst.Release(p, 1)
	s.protoMem.Release(p, 1)
	if s.nic != nil {
		// Outbound drops: the response died after leaving the host; the
		// server's TCP/app-level retransmission resends it after each
		// timeout, and only then does the closed-loop client continue.
		s.chargeLostAttempts(p, s.lostAttempts(p))
		s.nic.Transfer(p, 1)
		if s.dram != nil {
			// The card DMAs the payload out of the send buffer's home
			// DRAM toward the I/O hub — the transmit mirror of the
			// receive-half charge in rxPacket. The bytes occupy the home
			// controller and every HT link between that chip and the hub.
			s.dram.DMARead(p, s.skb.home[p.Core()], n)
		}
	}
	// The buffer returns to the pool only after the card has drained it.
	s.skb.Put(p)
}

// ---- UDP (memcached) ----

// UDPSocket is a bound UDP socket. It carries no state: every charge
// depends only on the calling proc's core.
type UDPSocket struct{}

// NewUDPSocket creates a socket on the calling proc's core.
func (s *Stack) NewUDPSocket(p *sim.Proc) *UDPSocket {
	s.fs.CreateAnon(p)
	return &UDPSocket{}
}

// CloseUDP destroys the socket.
func (s *Stack) CloseUDP(p *sim.Proc, u *UDPSocket) {
	s.fs.ReleaseAnon(p)
}

// RecvUDP charges receipt of one request datagram of n bytes.
func (s *Stack) RecvUDP(p *sim.Proc, u *UDPSocket, n int64) {
	s.rxPacket(p, n)
}

// SendUDP charges transmission of one response datagram of n bytes.
func (s *Stack) SendUDP(p *sim.Proc, u *UDPSocket, n int64) {
	s.txPacket(p, n)
}

// ---- TCP ----

// Listener is a listening TCP socket. The stock kernel funnels all
// incoming connection requests through one backlog queue protected by the
// socket lock; PK gives each core its own backlog queue filled by the
// hardware flow director, with stealing when the local queue is empty.
// Listen builds only the layout Config.ParallelAccept selects: the lock
// and the shared queue head, or the per-core queues.
type Listener struct {
	lock        slock.SpinLock // stock shared backlog lock
	backlogLine mem.Line       // stock shared queue head
	coreLines   []mem.Line     // PK per-core backlog queues
	steals      int64
}

// Listen creates a listening socket.
func (s *Stack) Listen(p *sim.Proc) *Listener {
	l := &Listener{}
	if !s.cfg.ParallelAccept {
		l.lock = slock.NewSpinLock(s.md, "accept-backlog", 0)
		l.backlogLine = s.md.Alloc(0)
		s.md.Label(l.backlogLine, "tcp.accept_backlog")
		return l
	}
	n := s.md.Machine().NCores
	l.coreLines = make([]mem.Line, n)
	for c := 0; c < n; c++ {
		l.coreLines[c] = s.md.AllocLocal(c)
	}
	return l
}

// Conn is an accepted TCP connection.
type Conn struct {
	// local is true when all packet processing for the connection happens
	// on the accepting core (PK parallel accept with flow steering).
	local bool
}

// Accept dequeues one connection request through the layout Listen built
// for l. The caller is assumed to be a server thread that will process the
// connection on this core.
func (s *Stack) Accept(p *sim.Proc, l *Listener) *Conn {
	conn := &Conn{}
	if l.coreLines != nil {
		// Local backlog: a core-private line, no shared lock.
		if p.Engine().Rand.Float64() < costs.stealProbability {
			// Steal from a neighbor's queue: remote line traffic.
			victim := p.Engine().Rand.Intn(len(l.coreLines))
			p.Advance(s.md.Write(p.Core(), l.coreLines[victim], p.Now()))
			l.steals++
		} else {
			p.Advance(s.md.Write(p.Core(), l.coreLines[p.Core()], p.Now()))
		}
		conn.local = true
	} else {
		l.lock.Acquire(p)
		p.Advance(s.md.Write(p.Core(), l.backlogLine, p.Now()) + costs.sockQueueOp)
		l.lock.Release(p)
		conn.local = false
	}
	s.fs.CreateAnon(p)
	// Handshake packets processed by this core.
	for i := 0; i < costs.tcpHandshakePackets; i++ {
		s.chargeSteering(p, conn)
		if i < 2 {
			s.rxPacket(p, costs.ctlPacketBytes)
		} else {
			s.txPacket(p, costs.ctlPacketBytes)
		}
	}
	return conn
}

// NewSteeredConn returns an established connection whose packets the
// hardware flow director reliably delivers to this core — the behavior of
// long-lived connections under the IXGBE sampling approach (§4.2: "This
// design typically performs well for long-lived connections"). PostgreSQL
// relies on it on both kernels (§5.5).
func (s *Stack) NewSteeredConn(p *sim.Proc) *Conn {
	s.fs.CreateAnon(p)
	return &Conn{local: true}
}

// chargeSteering charges the cache misses of a misdirected packet: the
// socket state lives on the processing core, the packet arrived on another.
func (s *Stack) chargeSteering(p *sim.Proc, c *Conn) {
	if c.local {
		return
	}
	if p.Engine().Rand.Float64() < s.cfg.MisdirectProb {
		s.misdirected++
		// The packet is handled on the wrong core.
		p.Advance(costs.misdirectWork)
	}
}

// Recv charges receipt of n bytes on the connection (one packet per MSS).
func (s *Stack) Recv(p *sim.Proc, c *Conn, n int64) {
	for _, seg := range segments(n) {
		s.chargeSteering(p, c)
		s.rxPacket(p, seg)
	}
}

// Send charges transmission of n bytes on the connection.
func (s *Stack) Send(p *sim.Proc, c *Conn, n int64) {
	for _, seg := range segments(n) {
		s.txPacket(p, seg)
	}
}

// CloseConn tears the connection down (FIN exchange + socket inode).
func (s *Stack) CloseConn(p *sim.Proc, c *Conn) {
	s.chargeSteering(p, c)
	s.rxPacket(p, costs.ctlPacketBytes)
	s.txPacket(p, costs.ctlPacketBytes)
	s.fs.ReleaseAnon(p)
}

func segments(n int64) []int64 {
	if n <= 0 {
		return []int64{0}
	}
	var segs []int64
	for n > costs.mss {
		segs = append(segs, costs.mss)
		n -= costs.mss
	}
	return append(segs, n)
}

// ---- Loopback (Exim) ----

// A loopback connection is a same-machine TCP connection: no NIC, no DMA
// buffers, but still socket inodes and protocol work. Its charges depend
// only on the calling proc, so the calls take no connection handle.

// DialLoopback opens a client->server loopback connection.
func (s *Stack) DialLoopback(p *sim.Proc) {
	s.fs.CreateAnon(p)
}

// LoopbackXfer charges a loopback send+receive of n bytes.
func (s *Stack) LoopbackXfer(p *sim.Proc, n int64) {
	s.protoMem.Acquire(p, 1)
	p.Advance(costs.protoWork + n/costs.copyPerByte + costs.sockQueueOp)
	s.protoMem.Release(p, 1)
}

// CloseLoopback closes a loopback connection.
func (s *Stack) CloseLoopback(p *sim.Proc) {
	s.fs.ReleaseAnon(p)
}

// ---- skb pool ----

// SkbPool is the packet-buffer free list. The list is split into shards,
// each a spin lock and the line it guards, and core c allocates from
// shard c mod the shard count. Stock is the one-shard case: one list on
// the I/O hub's node (all DMA buffers come from the node nearest the PCI
// bus), skb-pool-node*. PK keeps one shard per core on the core's own node,
// skb-pool-cpu* (§4.5). Only the constructor chooses the layout; Get and
// Put are the same code on both.
type SkbPool struct {
	md    *mem.Model
	locks []slock.SpinLock
	lines []mem.Line

	// home is the chip whose DRAM holds each core's packet buffers: the
	// I/O hub's node for the stock single pool, the core's own node with
	// per-core pools. The card's DMA in both directions routes against it.
	home []int
	// payload samples the cache lines of each core's receive buffer, on
	// home[core], so every received packet's first touch is a local or a
	// cross-chip DRAM fetch accordingly (§5.3).
	payload []*mem.LineSet

	gets int64
}

func newSkbPool(md *mem.Model, perCore bool) *SkbPool {
	m := md.Machine()
	sp := &SkbPool{md: md, home: make([]int, m.NCores)}
	if !perCore {
		sp.locks = []slock.SpinLock{slock.NewSpinLock(md, "skb-pool-node*", m.IOHubChip)}
		sp.lines = []mem.Line{md.Alloc(m.IOHubChip)}
		md.Label(sp.lines[0], "skb.free_list(node"+strconv.Itoa(m.IOHubChip)+")")
	} else {
		sp.locks = make([]slock.SpinLock, m.NCores)
		sp.lines = make([]mem.Line, m.NCores)
	}
	for c := 0; c < m.NCores; c++ {
		home := m.IOHubChip
		if perCore {
			home = m.Chip(c)
			sp.locks[c] = slock.NewSpinLock(md, "skb-pool-cpu*", home)
			sp.lines[c] = md.AllocLocal(c)
		}
		sp.home[c] = home
		ls := mem.NewLineSet(costs.dmaPayloadLines)
		for i := 0; i < costs.dmaPayloadLines; i++ {
			ls.Add(md.Alloc(home))
		}
		sp.payload = append(sp.payload, ls)
	}
	return sp
}

// DMARecv models the card depositing a packet into this core's receive
// buffer: the DMA write invalidates any cached copies, and the driver's
// first touch fetches the payload lines from the buffer's home DRAM — a
// batch resolved in one AccessSet.
func (sp *SkbPool) DMARecv(p *sim.Proc) {
	ls := sp.payload[p.Core()]
	sp.md.DMAWrite(ls.Lines())
	p.Advance(sp.md.AccessSet(p.Core(), ls.Lines(), mem.OpRead, p.Now()))
}

// Get allocates a packet buffer.
func (sp *SkbPool) Get(p *sim.Proc) {
	sp.gets++
	sp.update(p, costs.skbWork)
}

// Put frees a packet buffer back to the pool.
func (sp *SkbPool) Put(p *sim.Proc) {
	sp.update(p, 0)
}

// update charges one free-list operation, plus work cycles, under the
// calling core's shard lock.
func (sp *SkbPool) update(p *sim.Proc, work int64) {
	c := p.Core()
	s := c % len(sp.locks)
	sp.locks[s].Acquire(p)
	p.Advance(sp.md.Write(c, sp.lines[s], p.Now()) + work)
	sp.locks[s].Release(p)
}

// Gets returns the number of allocations served.
func (sp *SkbPool) Gets() int64 { return sp.gets }
