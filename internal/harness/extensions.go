package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/fprint"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/scount"
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file registers the extension experiments: the paper's analysis
// methodology (contention profiles) and the design-choice ablations that
// go beyond the paper's figures. `mosbench -list` prints every
// registered experiment.

func init() {
	register(Experiment{
		ID:      "profile",
		Title:   "Contention profile of the stock kernel under Exim and memcached",
		Paper:   "the paper's methodology: find the locks and lines cores wait on (§1, §5.2, §5.3)",
		Domains: withApps("exim", "memcached"),
		Run:     runProfile,
	})

	register(Experiment{
		ID:      "sloppy-threshold",
		Title:   "Sloppy counter spare-threshold sweep",
		Paper:   "§4.3 design choice: local spares trade space for central-counter traffic",
		Domains: []string{"topo", "mem", "kernel"},
		Run:     runSloppyThreshold,
	})

	register(Experiment{
		ID:      "spool-dirs",
		Title:   "Exim spool directory sweep on PK at 48 cores",
		Paper:   "§5.2: the residual Exim bottleneck is per-directory create locks",
		Domains: withApps("exim"),
		Run:     runSpoolDirs,
	})

	register(Experiment{
		ID:      "lockmgr",
		Title:   "PostgreSQL lock-manager mutex count sweep (stock kernel, r/w)",
		Paper:   "§5.5: 16 mutexes cause false contention; modPG uses 1024 + lock-free path",
		Domains: withApps("postgres"),
		Run:     runLockMgr,
	})

	register(Experiment{
		ID:      "steering",
		Title:   "Flow-director misdirection sweep for short connections",
		Paper:   "§4.2: sampling misdirects most packets of short connections",
		Domains: []string{"topo", "mem", "kernel", "steering"},
		Run:     runSteering,
	})

	register(Experiment{
		ID:      "scalable-locks",
		Title:   "Scalable (MCS) lock vs data refactoring on the mount table",
		Paper:   "§4.1/[41]: better locks alone cannot fix shared-data bottlenecks",
		Domains: withApps("exim"),
		Run:     runScalableLocks,
	})
}

// runScalableLocks runs Exim at 48 cores three ways: stock, stock with an
// MCS queue lock on the mount table, and stock with the paper's actual
// fixes for the mount path (sloppy vfsmount refcount + per-core caches).
// The MCS lock removes the lock-waiter traffic but the table entry and its
// embedded reference count still serialize, so only the refactoring
// restores throughput — the paper's central design argument.
func runScalableLocks(o Options) *Series {
	s := &Series{ID: "scalable-locks",
		Title: "Mount table: ticket lock vs MCS vs refactoring (Exim, 48 cores)",
		Unit:  "msg/s/core"}
	mcs := kernel.Stock()
	mcs.VFS.ScalableMountLock = true
	refactored := kernel.Stock()
	refactored.VFS.SloppyVfsmountRef = true
	refactored.VFS.PerCoreMountCache = true
	var runs []variantRun
	for _, v := range []struct {
		name string
		cfg  kernel.Config
	}{
		{"Stock (ticket lock)", kernel.Stock()},
		{"Stock + MCS lock", mcs},
		{"Stock + mount refactoring", refactored},
	} {
		runs = append(runs, variantRun{v.name, func(cores int, o Options) Point {
			return opPoint(mosAppNamed("Exim").run(v.cfg, false, cores, o))
		}})
	}
	o.Cores = []int{o.maxCores()}
	o.runGrid(s, runs)
	return s
}

// opPoint is the point the closed-loop extension sweeps report: per-core
// throughput and CPU time per operation only.
func opPoint(r apps.Result) Point {
	return Point{
		PerCore:    r.PerCore(),
		UserMicros: r.UserMicrosPerOp(),
		SysMicros:  r.SysMicrosPerOp(),
	}
}

// runProfile reproduces the paper's diagnosis step: run a stock kernel
// under Exim and memcached at 48 cores and report where the cycles went.
// The top entries should be the very objects Figure 1 names.
func runProfile(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "profile",
		Title: fmt.Sprintf("Stock-kernel contention profile at %d cores", max)}

	kExim := o.newKernel(o.topo(max), kernel.Stock())
	eximOpts := apps.DefaultEximOpts()
	eximOpts.MessagesPerCore = scale(eximOpts.MessagesPerCore, o.Quick)
	apps.RunExim(kExim, eximOpts)
	s.Notes = append(s.Notes, fmt.Sprintf("== Exim on stock, %d cores ==", max))
	s.Notes = append(s.Notes, kExim.MD.Prof.Report(6))

	kMC := o.newKernel(o.topo(max), kernel.Stock())
	mcOpts := apps.DefaultMemcachedOpts()
	mcOpts.RequestsPerCore = scale(mcOpts.RequestsPerCore, o.Quick)
	mcOpts.UseNIC = false
	apps.RunMemcached(kMC, mcOpts)
	s.Notes = append(s.Notes, fmt.Sprintf("== memcached on stock, %d cores ==", max))
	s.Notes = append(s.Notes, kMC.MD.Prof.Report(6))
	return s
}

// runSloppyThreshold sweeps the per-core spare cap of a simulated sloppy
// counter under 48-core churn: too small and cores fall through to the
// central counter; larger thresholds cost space (and reconcile latency)
// for no additional speed.
func runSloppyThreshold(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "sloppy-threshold",
		Title: fmt.Sprintf("Sloppy counter threshold sweep (%d cores)", max),
		Unit:  "ops/s/core"}
	churn := scale(400, o.Quick)
	// Each worker holds several references at once (as a path walk does),
	// so small thresholds cannot park the whole working set locally and
	// fall through to the central counter.
	const batch = 3
	for _, threshold := range []int64{1, 2, 4, 8, 16, 64} {
		m := o.topo(max)
		e := o.newEngine(m)
		md := mem.NewModel(m)
		ctr := scount.NewSloppy(md, 0)
		ctr.Threshold = threshold
		for c := 0; c < max; c++ {
			e.Spawn(c, "churn", 0, func(p *sim.Proc) {
				for i := 0; i < churn; i++ {
					ctr.Acquire(p, batch)
					//mosvet:allow fprintcheck hold time of a sweep that never enters the point cache
					p.Advance(120)
					ctr.Release(p, batch)
				}
			})
		}
		e.Run()
		opsPerSec := float64(max*churn) / topo.CyclesToSec(e.Now()) / float64(max)
		s.Points = append(s.Points, Point{
			Cores:   max,
			Variant: fmt.Sprintf("threshold=%d", threshold),
			PerCore: opsPerSec,
		})
		s.Notes = append(s.Notes, fmt.Sprintf(
			"threshold %-3d: central ops %6d of %d total",
			threshold, ctr.CentralOps(), ctr.CentralOps()+ctr.LocalOps()))
	}
	return s
}

// runSpoolDirs sweeps Exim's spool directory count on PK at 48 cores.
func runSpoolDirs(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "spool-dirs",
		Title: fmt.Sprintf("Exim spool directories (PK, %d cores)", max),
		Unit:  "msg/s/core"}
	var runs []variantRun
	for _, dirs := range []int{1, 2, 4, 8, 16, 62, 256} {
		name := fmt.Sprintf("dirs=%d", dirs)
		runs = append(runs, variantRun{name, func(cores int, o Options) Point {
			k := o.newKernel(o.topo(cores), kernel.PK())
			opts := apps.DefaultEximOpts()
			opts.MessagesPerCore = scale(opts.MessagesPerCore, o.Quick)
			opts.SpoolDirs = dirs
			return opPoint(apps.RunExim(k, opts))
		}})
	}
	o.Cores = []int{max}
	o.runGrid(s, runs)
	return s
}

// runLockMgr sweeps PostgreSQL's lock-manager mutex count on the stock
// kernel with the read/write workload at half the machine, 24 cores on
// the default host (past the stock peak, before the lseek wall).
func runLockMgr(o Options) *Series {
	cores := o.maxCores() / 2
	if cores < 1 {
		cores = 1
	}
	s := &Series{ID: "lockmgr",
		Title: fmt.Sprintf("PostgreSQL lock-manager mutexes (stock kernel, r/w, %d cores)", cores),
		Unit:  "q/s/core"}
	var runs []variantRun
	for _, n := range []int{1, 4, 16, 64, 1024} {
		name := fmt.Sprintf("mutexes=%d", n)
		runs = append(runs, variantRun{name, func(cores int, o Options) Point {
			k := o.newKernel(o.topo(cores), kernel.Stock())
			opts := apps.DefaultPostgresOpts()
			opts.QueriesPerCore = scale(opts.QueriesPerCore, o.Quick)
			opts.WriteFraction = 0.05
			opts.LockMutexes = n
			return opPoint(apps.RunPostgres(k, opts))
		}})
	}
	o.Cores = []int{cores}
	o.runGrid(s, runs)
	s.Notes = append(s.Notes,
		"More mutexes spread false contention; the full modPG also adds the lock-free fast path.")
	return s
}

// steeringCosts is the steering experiment's short-connection request:
// each core serves steeringRequests of them (scaled down by -quick), each
// receiving a request, reading a small file, sending a response and doing
// user-mode work.
var steeringCosts = struct {
	steeringRequests                                                         int
	steeringReqBytes, steeringFileBytes, steeringRespBytes, steeringUserWork int64
}{
	steeringRequests:  150,
	steeringReqBytes:  120,
	steeringFileBytes: 300,
	steeringRespBytes: 550,
	steeringUserWork:  10_000, // cycles per request
}

// steeringFingerprint is the "steering" cost domain: the steering
// experiment's own cost table, which no other domain covers.
var steeringFingerprint = fprint.New("steering").Table(steeringCosts).Sum()

// runSteering sweeps the flow-director misdirection probability for a
// short-connection workload. Every other PK fix is applied so kernel
// serialization does not mask the steering cost — this isolates what the
// sampling approach costs short connections (§4.2).
func runSteering(o Options) *Series {
	cores := 8
	if max := o.maxCores(); cores > max {
		cores = max
	}
	s := &Series{ID: "steering",
		Title: fmt.Sprintf("Flow-director misdirection (sampled steering, %d cores)", cores),
		Unit:  "req/s/core"}
	var runs []variantRun
	for _, prob := range []float64{0.001, 0.2, 0.4, 0.6, 0.8} {
		name := fmt.Sprintf("misdirect=%.0f%%", prob*100)
		runs = append(runs, variantRun{name, func(cores int, o Options) Point {
			m := o.topo(cores)
			cfg := kernel.PK()
			// Sampled steering. Each server proc listens on its own stock
			// listener, so accept never contends: only misdirection costs.
			cfg.Net.ParallelAccept = false
			cfg.Net.MisdirectProb = prob
			k := o.newKernel(m, cfg)
			stack := k.NewStack(nil)
			k.FS.MustCreateFile("/www/f", steeringCosts.steeringFileBytes)
			reqs := scale(steeringCosts.steeringRequests, o.Quick)
			for c := 0; c < cores; c++ {
				k.Engine.Spawn(c, "srv", 0, func(p *sim.Proc) {
					l := stack.Listen(p)
					for i := 0; i < reqs; i++ {
						conn := stack.Accept(p, l)
						stack.Recv(p, conn, steeringCosts.steeringReqBytes)
						f := k.FS.Open(p, "/www/f")
						k.FS.Read(p, f, steeringCosts.steeringFileBytes)
						k.FS.Close(p, f)
						stack.Send(p, conn, steeringCosts.steeringRespBytes)
						stack.CloseConn(p, conn)
						p.AdvanceUser(steeringCosts.steeringUserWork)
					}
				})
			}
			k.Engine.Run()
			tput := float64(cores*reqs) / topo.CyclesToSec(k.Engine.Now()) / float64(cores)
			return Point{PerCore: tput}
		}})
	}
	o.Cores = []int{cores}
	o.runGrid(s, runs)
	s.Notes = append(s.Notes,
		"Per-core backlog queues (PK) make steering exact and this sweep moot (§4.2).")
	return s
}
