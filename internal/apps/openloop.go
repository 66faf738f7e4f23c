package apps

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// OpenLoopOpts configures an open-loop run of one of the server apps:
// arrivals at a configured fraction of the app's saturation rate,
// independent of how fast the server answers — the regime where overload
// and tail latency are visible, unlike the paper's closed-loop clients.
type OpenLoopOpts struct {
	// Arrival selects the arrival process (nil = poisson over the
	// default simulated user population).
	Arrival *load.ArrivalSpec
	// Link shapes the client-side network path (nil = ideal link).
	Link *load.LinkSpec
	// Shed is the server's admission policy (nil = unbounded FIFO).
	Shed *load.ShedSpec
	// LoadPercent is the offered load as a percentage of the calibrated
	// saturation rate: 100 is the knee, above 100 is overload. 0 means
	// 100.
	LoadPercent int
	// RequestsPerCore is the measured-phase offered budget per core
	// (0 = load.DefaultRequestsPerCore).
	RequestsPerCore int
	// CalibRequestsPerCore is the closed-loop calibration budget per
	// core (0 = load.DefaultCalibRequestsPerCore).
	CalibRequestsPerCore int
}

func (o OpenLoopOpts) requests() int {
	if o.RequestsPerCore > 0 {
		return o.RequestsPerCore
	}
	return load.DefaultRequestsPerCore
}

func (o OpenLoopOpts) calib() int {
	if o.CalibRequestsPerCore > 0 {
		return o.CalibRequestsPerCore
	}
	return load.DefaultCalibRequestsPerCore
}

func (o OpenLoopOpts) loadPercent() int {
	if o.LoadPercent > 0 {
		return o.LoadPercent
	}
	return 100
}

// runOpenLoop is the two-phase driver shared by the per-app open-loop
// runners. Phase 1 runs the app closed-loop (spawnCalib installs the
// same worker bodies the paper's figures use) to locate this
// configuration's saturation rate on this machine — so "offered load =
// 150%" means 150% of what *these* cores at *this* core count can
// actually serve, not a magic constant. Phase 2 re-runs the engine with
// load.Run generating open-loop arrivals at that calibrated rate scaled
// by LoadPercent; all measured-phase accounting is deltas from the end
// of calibration.
func runOpenLoop(k *kernel.Kernel, name string, ol OpenLoopOpts,
	reqBytes, respBytes int64, stack *netsim.Stack,
	spawnCalib func(perCore int), srv load.Server) Result {

	e := k.Engine
	workers := onlineCores(k)

	spawnCalib(ol.calib())
	e.Run()
	calEnd := e.Now()
	user0, sys0 := e.TotalUserCycles(), e.TotalSysCycles()
	retries0, dups0 := stack.Retries(), stack.Duplicated()

	// Per-request wall time at saturation: every core ran its budget
	// concurrently, so the elapsed virtual time over one core's budget is
	// the knee's inter-completion gap.
	perReq := calEnd / int64(ol.calib())
	gap := perReq * 100 / int64(ol.loadPercent())
	if gap < 1 {
		gap = 1
	}

	st := load.Run(e, workers, load.Config{
		Arrival:       ol.Arrival,
		Link:          ol.Link,
		Shed:          ol.Shed,
		MeanGapCycles: gap,
		ServiceCycles: perReq,
		Requests:      ol.requests(),
		RequestBytes:  reqBytes,
		ResponseBytes: respBytes,
		Start:         calEnd,
	}, srv)
	e.Run()
	st.Finish()

	return Result{
		App:            name,
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

// RunMemcachedOpenLoop drives the object-cache workload open-loop.
func RunMemcachedOpenLoop(k *kernel.Kernel, opts MemcachedOpts, ol OpenLoopOpts) Result {
	e := k.Engine
	var nic *netsim.NIC
	if opts.UseNIC {
		nic = netsim.NewNICFor(k.Machine, netsim.MemcachedNIC(), k.Machine.NCores)
	}
	stack := k.NewStack(nic)

	spawnCalib := func(n int) {
		for _, c := range onlineCores(k) {
			e.Spawn(c, "memcached-calib", 0, func(p *sim.Proc) {
				sock := stack.NewUDPSocket(p)
				for i := 0; i < n; i++ {
					stack.RecvUDP(p, sock, opts.RequestBytes)
					p.AdvanceUser(memcachedUserWork)
					stack.SendUDP(p, sock, opts.ResponseBytes)
				}
				stack.CloseUDP(p, sock)
			})
		}
	}
	srv := load.Server{
		NewWorker: func(p *sim.Proc) load.Handler {
			sock := stack.NewUDPSocket(p)
			serve := func(p *sim.Proc) {
				stack.RecvUDP(p, sock, opts.RequestBytes)
				p.AdvanceUser(memcachedUserWork)
				stack.SendUDP(p, sock, opts.ResponseBytes)
			}
			return load.Handler{
				Request: serve,
				// UDP has no duplicate suppression: a retransmitted GET
				// is indistinguishable from a fresh one and is served in
				// full, the client keeping only the first answer. This
				// is what lets a retry storm eat the server's capacity.
				Discard: serve,
			}
		},
		// UDP sheds at the card: a datagram arriving to a full receive
		// ring dies in the MAC FIFO without crossing the DMA engine, so
		// dropping is free — which is what lets the bounded-ring policy
		// hold goodput at peak when the NIC itself is the bottleneck.
		Shed: func(p *sim.Proc) { stack.ShedDrop(p) },
	}
	return runOpenLoop(k, "memcached", ol, opts.RequestBytes, opts.ResponseBytes,
		stack, spawnCalib, srv)
}

// RunApacheOpenLoop drives the web-server workload open-loop.
func RunApacheOpenLoop(k *kernel.Kernel, opts ApacheOpts, ol OpenLoopOpts) Result {
	e := k.Engine
	fs := k.FS
	var nic *netsim.NIC
	if opts.UseNIC {
		nic = netsim.NewNICFor(k.Machine, netsim.ApacheNIC(), k.Machine.NCores)
	}
	stack := k.NewStack(nic)
	fs.MustCreateFile("/var/www/htdocs/index.html", opts.FileBytes)

	// Listener setup mirrors RunApache's bootstrap: the calibration
	// phase's master proc creates the listeners, and the open-loop
	// workers keep serving on them.
	listeners := make([]*netsim.Listener, k.Machine.NCores)
	spawnCalib := func(n int) {
		e.Spawn(k.FirstOnline(), "apache-master", 0, func(p *sim.Proc) {
			if opts.SingleInstance {
				shared := stack.Listen(p)
				for c := range listeners {
					listeners[c] = shared
				}
			} else {
				for c := range listeners {
					listeners[c] = stack.Listen(p)
				}
			}
			for _, c := range onlineCores(k) {
				p.Engine().Spawn(c, "apache-calib", p.Now(), func(wp *sim.Proc) {
					for i := 0; i < n; i++ {
						apacheRequest(k, wp, stack, nic, listeners[c], opts)
					}
				})
			}
		})
	}
	srv := load.Server{
		NewWorker: func(p *sim.Proc) load.Handler {
			core := p.Core()
			return load.Handler{
				Request: func(p *sim.Proc) {
					apacheRequest(k, p, stack, nic, listeners[core], opts)
				},
				Discard: func(p *sim.Proc) { stack.DiscardDup(p) },
			}
		},
		Shed: func(p *sim.Proc) { stack.ShedReject(p) },
	}
	return runOpenLoop(k, "Apache", ol, apacheReqBytes, apacheHdrBytes+opts.FileBytes,
		stack, spawnCalib, srv)
}

// RunEximOpenLoop drives the mail-server workload open-loop: each
// arrival is one message delivered over a per-core long-lived SMTP
// connection (open-loop clients hold their connections instead of the
// closed-loop 10-messages-then-reconnect cycle).
func RunEximOpenLoop(k *kernel.Kernel, opts EximOpts, ol OpenLoopOpts) Result {
	e := k.Engine
	fs := k.FS
	stack := k.NewStack(nil) // clients are on the same machine: loopback

	for d := 0; d < opts.SpoolDirs; d++ {
		fs.MustMkdirAll(fmt.Sprintf("/var/spool/input/%02d", d))
	}
	for u := 0; u < opts.Users; u++ {
		fs.MustCreateFile(fmt.Sprintf("/var/mail/user%02d", u), 0)
	}
	fs.MustCreateFile("/var/log/exim/mainlog", 0)
	for _, path := range eximConfigPaths {
		fs.MustCreateFile(path, 4096)
	}

	spawnCalib := func(n int) {
		for _, c := range onlineCores(k) {
			e.Spawn(c, "exim-calib", 0, func(p *sim.Proc) {
				mailAS := k.NewAddressSpace(p.Chip())
				master := k.Procs.NewInitProcess(mailAS)
				sent := 0
				for sent < n {
					conn := stack.DialLoopback(p)
					connProc := k.Procs.Fork(p, master, mailAS)
					k.Procs.ChildStart(p, connProc)
					batch := opts.MessagesPerConn
					if rem := n - sent; batch > rem {
						batch = rem
					}
					for m := 0; m < batch; m++ {
						user := e.Rand.Intn(opts.Users)
						spool := e.Rand.Intn(opts.SpoolDirs)
						eximMessage(k, p, stack, conn, connProc, user, spool, opts)
						sent++
					}
					k.Procs.Exit(p, connProc)
					stack.CloseLoopback(p, conn)
				}
			})
		}
	}
	srv := load.Server{
		NewWorker: func(p *sim.Proc) load.Handler {
			mailAS := k.NewAddressSpace(p.Chip())
			master := k.Procs.NewInitProcess(mailAS)
			conn := stack.DialLoopback(p)
			connProc := k.Procs.Fork(p, master, mailAS)
			k.Procs.ChildStart(p, connProc)
			return load.Handler{
				Request: func(p *sim.Proc) {
					user := e.Rand.Intn(opts.Users)
					spool := e.Rand.Intn(opts.SpoolDirs)
					eximMessage(k, p, stack, conn, connProc, user, spool, opts)
				},
				Discard: func(p *sim.Proc) { stack.DiscardDup(p) },
			}
		},
		Shed: func(p *sim.Proc) { stack.ShedReject(p) },
	}
	return runOpenLoop(k, "Exim", ol, eximSMTPBytes, 80, stack, spawnCalib, srv)
}

// RunPostgresOpenLoop drives the database workload open-loop: each
// arrival is one query on the core's long-lived steered connection
// (open-loop clients cannot batch — batching is a closed-loop luxury,
// which is exactly why the overload region looks different here).
func RunPostgresOpenLoop(k *kernel.Kernel, opts PostgresOpts, ol OpenLoopOpts) Result {
	e := k.Engine
	fs := k.FS
	stack := k.NewStack(nil)

	fs.MustCreateFile("/pgdata/base/table", 600<<20)
	fs.MustCreateFile("/pgdata/base/index", 128<<20)
	fs.MustCreateFile("/pgdata/pg_xlog/wal", 0)
	st := newPGState(k, opts)

	spawnCalib := func(n int) {
		for _, c := range onlineCores(k) {
			e.Spawn(c, "postgres-calib", 0, func(p *sim.Proc) {
				conn := stack.NewSteeredConn(p)
				table := fs.Open(p, "/pgdata/base/table")
				index := fs.Open(p, "/pgdata/base/index")
				wal := fs.Open(p, "/pgdata/pg_xlog/wal")
				done := 0
				for done < n {
					batch := opts.BatchSize
					if rem := n - done; batch > rem {
						batch = rem
					}
					stack.Recv(p, conn, int64(64*batch))
					for q := 0; q < batch; q++ {
						write := e.Rand.Float64() < opts.WriteFraction
						pgQuery(k, p, st, table, index, wal, write, opts)
					}
					stack.Send(p, conn, int64(128*batch))
					done += batch
				}
				fs.Close(p, table)
				fs.Close(p, index)
				fs.Close(p, wal)
				stack.CloseConn(p, conn)
			})
		}
	}
	srv := load.Server{
		NewWorker: func(p *sim.Proc) load.Handler {
			conn := stack.NewSteeredConn(p)
			table := fs.Open(p, "/pgdata/base/table")
			index := fs.Open(p, "/pgdata/base/index")
			wal := fs.Open(p, "/pgdata/pg_xlog/wal")
			return load.Handler{
				Request: func(p *sim.Proc) {
					stack.Recv(p, conn, 64)
					write := e.Rand.Float64() < opts.WriteFraction
					pgQuery(k, p, st, table, index, wal, write, opts)
					stack.Send(p, conn, 128)
				},
				Discard: func(p *sim.Proc) { stack.DiscardDup(p) },
			}
		},
		Shed: func(p *sim.Proc) { stack.ShedReject(p) },
	}
	return runOpenLoop(k, "PostgreSQL", ol, 64, 128, stack, spawnCalib, srv)
}
