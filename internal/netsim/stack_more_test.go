package netsim

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vfs"
)

// newStackWithDRAM is newStack with a NUMA memory system attached, so DMA
// payload bandwidth charging is active.
func newStackWithDRAM(cores int, cfg Config, nic *NIC) (*sim.Engine, *Stack, *mem.Controllers) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	fs := vfs.New(md, mm.NewAllocator(md), vfs.Config{})
	dram := mem.NewControllersFor(topo.Default())
	return sim.NewEngine(m, 1), NewStack(md, fs, nic, dram, cfg), dram
}

// TestTxChargesSendBufferDMA pins the transmit half of device DMA: sending
// a UDP datagram through the card must charge the send buffer's home
// controller, and — with per-core pools on a remote chip — the HT links
// from that chip to the I/O hub.
func TestTxChargesSendBufferDMA(t *testing.T) {
	// PK per-core pools, sender on chip 7 (core 47): payload must cross
	// links toward the hub and occupy chip 7's controller.
	nic := NewNICFor(topo.Default(), MemcachedNIC(), 48)
	e, s, dram := newStackWithDRAM(48, pkCfg(), nic)
	const payload = 1000
	e.Spawn(47, "srv", 0, func(p *sim.Proc) {
		u := s.NewUDPSocket(p)
		s.SendUDP(p, u, payload)
		s.CloseUDP(p, u)
	})
	e.Run()
	home := topo.New(48).Chip(47)
	if b := dram.Chip(home).BytesRequested(); b < payload {
		t.Errorf("send buffer's home controller served %d bytes, want >= %d", b, payload)
	}
	hops := len(topo.Default().Route(home, topo.IOHubChip))
	if got, want := dram.LinkBytesRequested(), int64(payload*hops); got < want {
		t.Errorf("tx DMA charged %d link bytes, want >= %d (%d hops to the hub)", got, want, hops)
	}

	// Stock node-0 pools: the buffer is homed on the hub chip, so the
	// same send charges chip 0's controller and no links.
	e2, s2, dram2 := newStackWithDRAM(48, stockCfg(), NewNICFor(topo.Default(), MemcachedNIC(), 48))
	e2.Spawn(47, "srv", 0, func(p *sim.Proc) {
		u := s2.NewUDPSocket(p)
		s2.SendUDP(p, u, payload)
		s2.CloseUDP(p, u)
	})
	e2.Run()
	if b := dram2.Chip(topo.IOHubChip).BytesRequested(); b < payload {
		t.Errorf("stock tx DMA charged %d bytes on the hub chip, want >= %d", b, payload)
	}
	if got := dram2.LinkBytesRequested(); got != 0 {
		t.Errorf("hub-homed tx DMA charged %d link bytes, want 0", got)
	}

	// No NIC (loopback-only stack): nothing charged at all.
	e3, s3, dram3 := newStackWithDRAM(1, pkCfg(), nil)
	e3.Spawn(0, "srv", 0, func(p *sim.Proc) {
		u := s3.NewUDPSocket(p)
		s3.SendUDP(p, u, payload)
		s3.CloseUDP(p, u)
	})
	e3.Run()
	if got := dram3.BytesRequested() + dram3.LinkBytesRequested(); got != 0 {
		t.Errorf("NIC-less send charged %d DMA bytes, want 0", got)
	}
}

func TestConnLifecyclePacketCount(t *testing.T) {
	// One accept + recv + send + close must move the expected packets
	// through the NIC: 3 handshake + 1 data in + 1 data out + 2 FIN.
	nic := NewNICFor(topo.Default(), ApacheNIC(), 1)
	e, s := newStack(1, pkCfg(), nic)
	e.Spawn(0, "srv", 0, func(p *sim.Proc) {
		l := s.Listen(p)
		conn := s.Accept(p, l)
		s.Recv(p, conn, 100)
		s.Send(p, conn, 100)
		s.CloseConn(p, conn)
	})
	e.Run()
	if got := nic.Packets(); got != 7 {
		t.Errorf("connection lifecycle moved %d packets, want 7", got)
	}
}

func TestLargeSendSegments(t *testing.T) {
	nic := NewNICFor(topo.Default(), ApacheNIC(), 1)
	e, s := newStack(1, pkCfg(), nic)
	e.Spawn(0, "srv", 0, func(p *sim.Proc) {
		conn := s.NewSteeredConn(p)
		s.Send(p, conn, 4000) // 3 MSS-sized segments
	})
	e.Run()
	if got := nic.Packets(); got != 3 {
		t.Errorf("4000-byte send moved %d packets, want 3", got)
	}
}

func TestSteeredConnNeverMisdirects(t *testing.T) {
	e, s := newStack(4, stockCfg(), nil)
	e.Spawn(0, "srv", 0, func(p *sim.Proc) {
		conn := s.NewSteeredConn(p)
		for i := 0; i < 50; i++ {
			s.Recv(p, conn, 200)
			s.Send(p, conn, 200)
		}
		s.CloseConn(p, conn)
	})
	e.Run()
	if got := s.Misdirected(); got != 0 {
		t.Errorf("steered connection misdirected %d packets, want 0", got)
	}
}

func TestMisdirectProbOverride(t *testing.T) {
	run := func(prob float64) int64 {
		cfg := stockCfg()
		cfg.MisdirectProb = prob
		e, s := newStack(1, cfg, nil)
		e.Spawn(0, "srv", 0, func(p *sim.Proc) {
			l := s.Listen(p)
			for i := 0; i < 40; i++ {
				conn := s.Accept(p, l)
				s.CloseConn(p, conn)
			}
		})
		e.Run()
		return s.Misdirected()
	}
	low, high := run(0.0001), run(0.99)
	if low >= high {
		t.Errorf("misdirects at p=0.0001 (%d) should be far below p=0.99 (%d)", low, high)
	}
}

func TestAcceptStealsAreRare(t *testing.T) {
	e, s := newStack(8, pkCfg(), nil)
	var l *Listener
	e.Spawn(0, "setup", 0, func(p *sim.Proc) {
		l = s.Listen(p)
		for c := 0; c < 8; c++ {
			c := c
			p.Engine().Spawn(c, "srv", p.Now(), func(wp *sim.Proc) {
				for i := 0; i < 50; i++ {
					conn := s.Accept(wp, l)
					s.CloseConn(wp, conn)
				}
			})
		}
	})
	e.Run()
	if l.steals > 400/5 {
		t.Errorf("steals = %d of 400 accepts; should be ~%v%%", l.steals, costs.stealProbability*100)
	}
}

func TestNICParamsValidationFloor(t *testing.T) {
	// Absurdly high PPS must not produce a zero service time.
	n := NewNICFor(topo.Default(), NICParams{PeakPPS: 1e18, QueueDeclineAfter: 48}, 1)
	if n.PacketServiceCycles() < 1 {
		t.Errorf("service cycles = %d, want >= 1", n.PacketServiceCycles())
	}
}

// TestStockPoolHomesOnIOHub: the stock skb pool lives on the I/O hub's
// node, the chip the card's stock DMA is charged against. On a machine whose hub
// hangs off chip 3, a stock DMARecv on a chip-3 core fetches each payload
// line from local DRAM.
func TestStockPoolHomesOnIOHub(t *testing.T) {
	d := topo.Default()
	m := (&topo.Machine{
		Name:               "iohub3",
		Chips:              d.Chips,
		CoresPerChip:       d.CoresPerChip,
		CacheLineBytes:     d.CacheLineBytes,
		LatL1:              d.LatL1,
		LatL2:              d.LatL2,
		LatL3:              d.LatL3,
		LatDRAMLocal:       d.LatDRAMLocal,
		LatDRAMFar:         d.LatDRAMFar,
		L3Bytes:            d.L3Bytes,
		L2Bytes:            d.L2Bytes,
		DRAMPerChipBytes:   d.DRAMPerChipBytes,
		DRAMMaxBytesPerSec: d.DRAMMaxBytesPerSec,
		LinkBytesPerSec:    d.LinkBytesPerSec,
		IOHubChip:          3,
	}).WithCores(48)
	md := mem.NewModel(m)
	s := NewStack(md, vfs.New(md, mm.NewAllocator(md), vfs.Config{}), nil, nil, stockCfg())
	e := sim.NewEngine(m, 1)
	core := 3 * m.CoresPerChip
	var cost int64
	e.Spawn(core, "rx", 0, func(p *sim.Proc) {
		start := p.Now()
		s.SkbPool().DMARecv(p)
		cost = p.Now() - start
	})
	e.Run()
	if m.Chip(core) != 3 {
		t.Fatalf("core %d is on chip %d, want 3", core, m.Chip(core))
	}
	if want := int64(costs.dmaPayloadLines) * m.LatDRAMLocal; cost != want {
		t.Errorf("stock DMARecv on the hub chip cost %d cycles, want %d (%d local DRAM fetches)",
			cost, want, costs.dmaPayloadLines)
	}
}
