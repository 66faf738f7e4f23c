package netsim

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vfs"
)

func stockCfg() Config { return Config{} }
func pkCfg() Config {
	return Config{
		ParallelAccept:        true,
		SloppyDstRef:          true,
		SloppyProtoMem:        true,
		LocalDMABuf:           true,
		NetDevFalseSharingFix: true,
	}
}

func newStack(cores int, cfg Config, nic *NIC) (*sim.Engine, *Stack) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	fs := vfs.New(md, mm.NewAllocator(md), vfs.Config{
		InodeListAvoidLock:  cfg.ParallelAccept, // PK presets move together
		DcacheListAvoidLock: cfg.ParallelAccept,
	})
	return sim.NewEngine(m, 1), NewStack(md, fs, nic, nil, cfg)
}

func TestNICQueueDecline(t *testing.T) {
	p := MemcachedNIC()
	svc16 := NewNICFor(topo.Default(), p, 16).PacketServiceCycles()
	svc48 := NewNICFor(topo.Default(), p, 48).PacketServiceCycles()
	if svc48 <= svc16 {
		t.Errorf("per-packet service at 48 queues (%d) must exceed 16 queues (%d)", svc48, svc16)
	}
	ratio := float64(svc48) / float64(svc16)
	want := 1 / (1 - MemcachedNIC().DeclineFrac)
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Errorf("48-queue slowdown ratio = %.2f, want ~%.2f", ratio, want)
	}
}

func TestNICApacheEnvelopeIsFlat(t *testing.T) {
	p := ApacheNIC()
	if NewNICFor(topo.Default(), p, 1).PacketServiceCycles() != NewNICFor(topo.Default(), p, 48).PacketServiceCycles() {
		t.Error("Apache NIC envelope should not depend on queue count")
	}
}

func TestUDPEchoPerCoreThroughputStockVsPK(t *testing.T) {
	// memcached-like: per-core UDP servers. Stock must degrade much more
	// steeply from 1 to 48 cores than PK (skb node-0 pool + dst refcount
	// + netdev false sharing).
	perOp := func(cfg Config, cores int) float64 {
		e, s := newStack(cores, cfg, nil) // no NIC: isolate kernel effects
		const reqs = 100
		for c := 0; c < cores; c++ {
			e.Spawn(c, "srv", 0, func(p *sim.Proc) {
				u := s.NewUDPSocket(p)
				for i := 0; i < reqs; i++ {
					s.RecvUDP(p, u, 68)
					p.AdvanceUser(1500) // app hash lookup
					s.SendUDP(p, u, 64)
				}
				s.CloseUDP(p, u)
			})
		}
		e.Run()
		return float64(e.Now()) / reqs
	}
	stockRatio := perOp(stockCfg(), 48) / perOp(stockCfg(), 1)
	pkRatio := perOp(pkCfg(), 48) / perOp(pkCfg(), 1)
	if stockRatio < 3*pkRatio {
		t.Errorf("stock UDP slowdown %.1fx vs PK %.1fx; stock must collapse", stockRatio, pkRatio)
	}
	if pkRatio > 4 {
		t.Errorf("PK UDP slowdown %.1fx; kernel-side path should stay scalable", pkRatio)
	}
}

func TestNICBoundThroughputPlateaus(t *testing.T) {
	// With the card in the loop, adding cores beyond its envelope must not
	// add throughput: wall time for a fixed total op count stops falling.
	wall := func(cores int) int64 {
		nic := NewNICFor(topo.Default(), MemcachedNIC(), cores)
		e, s := newStack(cores, pkCfg(), nic)
		const totalReqs = 960
		per := totalReqs / cores
		for c := 0; c < cores; c++ {
			e.Spawn(c, "srv", 0, func(p *sim.Proc) {
				u := s.NewUDPSocket(p)
				for i := 0; i < per; i++ {
					s.RecvUDP(p, u, 68)
					p.AdvanceUser(1500)
					s.SendUDP(p, u, 64)
				}
				s.CloseUDP(p, u)
			})
		}
		e.Run()
		return e.Now()
	}
	w16, w48 := wall(16), wall(48)
	// 3x the cores should yield well under 2x the speedup once the card
	// is the bottleneck.
	if w48*2 < w16 {
		t.Errorf("48 cores (%d cycles) more than 2x faster than 16 (%d); NIC should cap this", w48, w16)
	}
}

func TestAcceptStockContendsPKDoesNot(t *testing.T) {
	perAccept := func(cfg Config, cores int) float64 {
		e, s := newStack(cores, cfg, nil)
		// The listener is created by a setup proc, then server procs
		// accept concurrently.
		var l *Listener
		e.Spawn(0, "listen-setup", 0, func(p *sim.Proc) {
			l = s.Listen(p)
			const accepts = 50
			for c := 0; c < cores; c++ {
				p.Engine().Spawn(c, "srv", p.Now(), func(p *sim.Proc) {
					for i := 0; i < accepts; i++ {
						conn := s.Accept(p, l)
						s.CloseConn(p, conn)
						p.Advance(2000)
					}
				})
			}
		})
		e.Run()
		return float64(e.Now()) / 50
	}
	stockRatio := perAccept(stockCfg(), 48) / perAccept(stockCfg(), 1)
	pkRatio := perAccept(pkCfg(), 48) / perAccept(pkCfg(), 1)
	if stockRatio < 2*pkRatio {
		t.Errorf("stock accept slowdown %.1fx vs PK %.1fx; want shared-backlog penalty", stockRatio, pkRatio)
	}
}

func TestMisdirectionOnlyWithoutParallelAccept(t *testing.T) {
	run := func(cfg Config) int64 {
		e, s := newStack(4, cfg, nil)
		e.Spawn(0, "setup+srv", 0, func(p *sim.Proc) {
			l := s.Listen(p)
			for i := 0; i < 50; i++ {
				conn := s.Accept(p, l)
				s.Recv(p, conn, 200)
				s.Send(p, conn, 400)
				s.CloseConn(p, conn)
			}
		})
		e.Run()
		return s.Misdirected()
	}
	if got := run(pkCfg()); got != 0 {
		t.Errorf("PK flow steering misdirected %d packets, want 0", got)
	}
	if got := run(stockCfg()); got == 0 {
		t.Error("stock sampling-based steering misdirected no packets; expected many")
	}
}

func TestSegments(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{{0, 1}, {1, 1}, {1448, 1}, {1449, 2}, {4000, 3}}
	for _, c := range cases {
		if got := len(segments(c.n)); got != c.want {
			t.Errorf("segments(%d) = %d pieces, want %d", c.n, got, c.want)
		}
	}
}

func TestLoopbackDoesNotUseNIC(t *testing.T) {
	nic := NewNICFor(topo.Default(), MemcachedNIC(), 1)
	e, s := newStack(1, stockCfg(), nic)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		s.DialLoopback(p)
		s.LoopbackXfer(p, 2000)
		s.CloseLoopback(p)
	})
	e.Run()
	if nic.Packets() != 0 {
		t.Errorf("loopback moved %d packets through the NIC, want 0", nic.Packets())
	}
}

func TestSkbPoolCounts(t *testing.T) {
	e, s := newStack(2, pkCfg(), nil)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		u := s.NewUDPSocket(p)
		s.RecvUDP(p, u, 68)
		s.SendUDP(p, u, 64)
		s.CloseUDP(p, u)
	})
	e.Run()
	if got := s.SkbPool().Gets(); got != 2 {
		t.Errorf("skb gets = %d, want 2 (one rx, one tx)", got)
	}
}
