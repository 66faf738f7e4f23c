package apps

import (
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// OpenLoopOpts configures an open-loop run of memcached: arrivals at a
// configured fraction of the server's saturation rate, independent of how
// fast the server answers — the regime where overload and tail latency
// are visible, unlike the paper's closed-loop clients.
type OpenLoopOpts struct {
	// Arrival selects the arrival process (nil = poisson over the
	// default simulated user population).
	Arrival *load.ArrivalSpec
	// Link shapes the client-side network path (nil = ideal link).
	Link *load.LinkSpec
	// Shed is the server's admission policy (nil = unbounded FIFO).
	Shed *load.ShedSpec
	// LoadPercent is the offered load as a percentage of the calibrated
	// saturation rate: 100 is the knee, above 100 is overload. Required
	// (positive).
	LoadPercent int
	// RequestsPerCore is the measured-phase offered budget per core
	// (load.DefaultRequestsPerCore in the paper-scale run). Required
	// (positive).
	RequestsPerCore int
	// CalibRequestsPerCore is the closed-loop calibration budget per
	// core (load.DefaultCalibRequestsPerCore in the paper-scale run).
	// Required (positive).
	CalibRequestsPerCore int
}

// RunMemcachedOpenLoop drives the object-cache workload open-loop in two
// phases. Phase 1 runs it closed-loop (the same worker bodies the paper's
// figures use) to locate this configuration's saturation rate on this
// machine — so "offered load = 150%" means 150% of what *these* cores at
// *this* core count can actually serve, not a magic constant. Phase 2
// re-runs the engine with load.Run generating open-loop arrivals at that
// calibrated rate scaled by LoadPercent; all measured-phase accounting is
// deltas from the end of calibration.
func RunMemcachedOpenLoop(k *kernel.Kernel, opts MemcachedOpts, ol OpenLoopOpts) Result {
	e := k.Engine
	var nic *netsim.NIC
	if opts.UseNIC {
		nic = netsim.NewNICFor(k.Machine, netsim.MemcachedNIC(), k.Machine.NCores)
	}
	stack := k.NewStack(nic)
	workers := onlineCores(k)
	serve := func(p *sim.Proc, sock *netsim.UDPSocket) {
		stack.RecvUDP(p, sock, memcachedCosts.memcachedRequestBytes)
		p.AdvanceUser(memcachedCosts.memcachedUserWork)
		stack.SendUDP(p, sock, memcachedCosts.memcachedResponseBytes)
	}

	calib := ol.CalibRequestsPerCore
	for _, c := range workers {
		e.Spawn(c, "memcached-calib", 0, func(p *sim.Proc) {
			sock := stack.NewUDPSocket(p)
			for i := 0; i < calib; i++ {
				serve(p, sock)
			}
			stack.CloseUDP(p, sock)
		})
	}
	e.Run()
	calEnd := e.Now()
	user0, sys0 := e.TotalUserCycles(), e.TotalSysCycles()
	retries0, dups0 := stack.Retries(), stack.Duplicated()

	// Per-request wall time at saturation: every core ran its budget
	// concurrently, so the elapsed virtual time over one core's budget is
	// the knee's inter-completion gap.
	perReq := calEnd / int64(calib)
	gap := perReq * 100 / int64(ol.LoadPercent)
	if gap < 1 {
		gap = 1
	}

	st := load.Run(e, workers, load.Config{
		Arrival:       ol.Arrival,
		Link:          ol.Link,
		Shed:          ol.Shed,
		MeanGapCycles: gap,
		ServiceCycles: perReq,
		Requests:      ol.RequestsPerCore,
		RequestBytes:  memcachedCosts.memcachedRequestBytes,
		ResponseBytes: memcachedCosts.memcachedResponseBytes,
		Start:         calEnd,
	}, func(p *sim.Proc) func(*sim.Proc) {
		// UDP has no duplicate suppression, so load.Run serves a
		// retransmitted GET in full, the client keeping only the first
		// answer: this is what lets a retry storm eat the server's
		// capacity. UDP also sheds free at the card: a datagram arriving
		// to a full receive ring dies in the MAC FIFO without crossing the
		// DMA engine, so dropping costs no cycles, which is what lets the
		// bounded-ring policy hold goodput at peak when the NIC itself is
		// the bottleneck.
		sock := stack.NewUDPSocket(p)
		return func(p *sim.Proc) { serve(p, sock) }
	})
	e.Run()
	st.Finish()

	return Result{
		App:            "memcached",
		Cores:          k.Machine.NCores,
		Ops:            st.Completed,
		OfferedOps:     st.Offered,
		ShedOps:        st.Shed,
		LateOps:        st.Late,
		OfferedPerCore: float64(topo.ClockHz) / float64(gap),
		Sojourns:       st.Sojourns,
		NetRetries:     stack.Retries() - retries0 + st.Retries,
		NetDups:        stack.Duplicated() - dups0,
		WallCycles:     e.Now() - calEnd,
		UserCycles:     e.TotalUserCycles() - user0,
		SysCycles:      e.TotalSysCycles() - sys0,
		DRAMUtil:       k.DRAMUtilization(),
		LinkUtil:       k.LinkUtilization(),
	}
}
