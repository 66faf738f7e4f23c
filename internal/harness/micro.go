package harness

import (
	"fmt"

	"repro/internal/fprint"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/scount"
	"repro/internal/sim"
	"repro/internal/topo"
)

func init() {
	register(Experiment{
		ID:      "tbl-hw",
		Title:   "Machine memory-latency parameters",
		Paper:   "§5.1: L1 3cy, L2 14cy, L3 28cy, DRAM 122..503cy",
		Domains: []string{"topo", "mem"},
		Run:     runHWLatencies,
	})

	register(Experiment{
		ID:      "fig2",
		Title:   "Sloppy counter operation trace",
		Paper:   "Figure 2: acquire/release against central vs per-core counts",
		Domains: []string{"topo", "mem", "kernel"},
		Run:     runSloppyTrace,
	})

	register(Experiment{
		ID:      "dma",
		Title:   "DMA buffer allocation ablation",
		Paper:   "§5.3: local-node allocation improved throughput ~30% at 48 cores",
		Domains: withApps("memcached"),
		Run:     runDMAAblation,
	})

	register(Experiment{
		ID:      "nic-env",
		Title:   "UDP microbenchmark: NIC packet envelope",
		Paper:   "§5.4: the card delivers a capped packet rate at high core counts",
		Domains: withApps("memcached"),
		Run:     runNICEnvelope,
	})

	register(Experiment{
		ID:      "ablate",
		Title:   "Per-fix ablations",
		Paper:   "Figure 1: each fix applied alone to the most affected app at 48 cores",
		Domains: withApps("exim", "memcached", "apache", "postgres", "metis"),
		Run:     runAblations,
	})

	register(Experiment{
		ID:      "scount",
		Title:   "Sloppy vs shared counter scalability (simulated)",
		Paper:   "§4.3: a shared atomic serializes on one line; sloppy counters stay core-local",
		Domains: []string{"topo", "mem", "kernel", "scount"},
		Run:     runScountSweep,
	})
}

// runHWLatencies measures the memory model's latencies with pointer-chase
// style probes and prints them next to the paper's numbers.
func runHWLatencies(o Options) *Series {
	s := &Series{ID: "tbl-hw", Title: "Memory latencies (§5.1)", Unit: "cycles"}
	m := o.topo(o.maxCores())
	md := mem.NewModel(m)
	e := o.newEngine(m)

	// The far probe reads from the chip at the machine's diameter (chip 4
	// on the default ring); the sharer sits on the prober's chip.
	farChip := 0
	for chip := 1; chip < m.Chips; chip++ {
		if m.HopDistance(0, chip) == m.MaxHops() {
			farChip = chip
			break
		}
	}
	var l1, l3, dramLocal, dramFar, remoteDirty int64
	lineLocal := md.Alloc(0)
	lineFar := md.Alloc(farChip)
	lineShared := md.Alloc(0)
	lineDirty := md.Alloc(0)

	// Each probe performs one coherence access and charges its latency.
	e.Spawn(m.CoresPerChip-1, "warm-sharer", 0, func(p *sim.Proc) {
		p.Advance(md.Read(p.Core(), lineShared, p.Now()))
	})
	e.Spawn(m.NCores-1, "dirtier", 0, func(p *sim.Proc) {
		p.Advance(md.Write(p.Core(), lineDirty, p.Now()))
	})
	probes := []func(p *sim.Proc) int64{
		func(p *sim.Proc) int64 { dramLocal = md.Read(p.Core(), lineLocal, p.Now()); return dramLocal },
		func(p *sim.Proc) int64 { l1 = md.Read(p.Core(), lineLocal, p.Now()); return l1 },
		func(p *sim.Proc) int64 { dramFar = md.Read(p.Core(), lineFar, p.Now()); return dramFar },
		func(p *sim.Proc) int64 { l3 = md.Read(p.Core(), lineShared, p.Now()); return l3 },
		func(p *sim.Proc) int64 { remoteDirty = md.Read(p.Core(), lineDirty, p.Now()); return remoteDirty },
	}
	e.Spawn(0, "prober", 1_000_000, func(p *sim.Proc) {
		for _, probe := range probes {
			p.Advance(probe(p))
		}
	})
	e.Run()

	add := func(name string, measured int64, paper string) {
		s.Notes = append(s.Notes, fmt.Sprintf("%-28s measured %4d cycles   paper %s", name, measured, paper))
	}
	add("L1 hit", l1, "3")
	add("L2 hit (model constant)", m.LatL2, "14")
	add("shared L3 hit (same chip)", l3, "28")
	add("local DRAM", dramLocal, "122")
	add("farthest DRAM", dramFar, "503")
	add("remote dirty line fetch", remoteDirty, "hundreds (§4.1)")
	return s
}

// runSloppyTrace reproduces Figure 2's narrative: a thread takes a
// reference from the central counter, releases it locally, and a second
// acquire on the same core is satisfied without touching the central
// counter.
func runSloppyTrace(o Options) *Series {
	s := &Series{ID: "fig2", Title: "Sloppy counter trace (Figure 2)"}
	m := o.topo(2)
	md := mem.NewModel(m)
	e := o.newEngine(m)
	ctr := scount.NewSloppy(md, 0)
	e.Spawn(0, "core0", 0, func(p *sim.Proc) {
		ctr.Acquire(p, 1)
		s.Notes = append(s.Notes, fmt.Sprintf(
			"core 0 acquire: central ops=%d local ops=%d (first ref comes from the central counter)",
			ctr.CentralOps(), ctr.LocalOps()))
		//mosvet:allow fprintcheck narrative gap in Figure 2's trace, which prints notes only and is never cached
		p.Advance(1000)
		ctr.Release(p, 1)
		s.Notes = append(s.Notes, fmt.Sprintf(
			"core 0 release: central ops=%d local ops=%d (ref parked as a local spare)",
			ctr.CentralOps(), ctr.LocalOps()))
		ctr.Acquire(p, 1)
		s.Notes = append(s.Notes, fmt.Sprintf(
			"core 0 acquire: central ops=%d local ops=%d (spare reused without central traffic)",
			ctr.CentralOps(), ctr.LocalOps()))
		ctr.Release(p, 1)
		if err := ctr.Check(); err != nil {
			s.Notes = append(s.Notes, "INVARIANT VIOLATION: "+err.Error())
		} else {
			s.Notes = append(s.Notes, "invariant holds: central == in-use + sum(per-core spares)")
		}
	})
	e.Run()
	return s
}

// runDMAAblation compares node-0 vs local-node packet buffer allocation on
// the PK kernel at 48 cores, the §5.3 experiment (~30% improvement).
func runDMAAblation(o Options) *Series {
	s := &Series{ID: "dma", Title: "DMA buffer allocation (§5.3)", Unit: "req/s/core"}
	max := o.maxCores()
	// Keep the card in the loop, as the paper's measurement did (the
	// runner's default); the NIC envelope caps the achievable gain.
	labels := []string{"node-0 pool", "local pools"}
	pts, errs := o.fanOut(s, 2, func(i int) (string, int, func(int, Options) Point) {
		cfg := kernel.PK()
		cfg.Net.LocalDMABuf = i == 1
		return labels[i], max, func(c int, o Options) Point {
			return point(mosAppNamed("memcached").run(cfg, true, c, o), 1)
		}
	})
	for i, p := range pts {
		if errs[i] == nil {
			s.Points = append(s.Points, p)
		}
	}
	if errs[0] != nil || errs[1] != nil {
		s.Notes = append(s.Notes, fmt.Sprintf(
			"local-node allocation at %d cores skipped: %s", max, rowSkipReason(errs)))
		return s
	}
	s.Notes = append(s.Notes, fmt.Sprintf(
		"local-node allocation improves %d-core throughput by %.0f%% (paper: ~30%%)",
		max, (pts[1].PerCore/pts[0].PerCore-1)*100))
	return s
}

// runNICEnvelope sweeps cores with the memcached NIC model and reports the
// aggregate packet rate the card sustains — the §5.4-style microbenchmark
// showing the device, not the kernel, caps delivery.
func runNICEnvelope(o Options) *Series {
	s := &Series{ID: "nic-env", Title: "NIC packet envelope (§5.4)", Unit: "Mpkt/s total"}
	o.runGrid(s, []variantRun{{"UDP echo", func(c int, o Options) Point {
		r := mosAppNamed("memcached").runAs(true, c, o)
		pps := r.Throughput() * 2 / 1e6 // one rx + one tx per request
		return Point{PerCore: pps}
	}}})
	s.Notes = append(s.Notes,
		"PerCore column holds aggregate Mpkt/s; the plateau past 16 cores is the card envelope")
	return s
}

// scountCosts is the scount experiment's churn: each core runs
// scountPairs acquire and release pairs (scaled down by -quick), holding
// each reference for scountHoldWork user cycles.
var scountCosts = struct {
	scountPairs    int
	scountHoldWork int64
}{scountPairs: 400, scountHoldWork: 150}

// scountFingerprint is the "scount" cost domain: the scount experiment's
// own cost table, which no other domain covers.
var scountFingerprint = fprint.New("scount-sweep").Table(scountCosts).Sum()

// runScountSweep sweeps core counts with every core churning acquire and
// release pairs on one logical reference counter, comparing the stock
// shared atomic against the paper's sloppy counter (§4.3). Each point is
// an independent simulation, so the sweep fans out across workers.
func runScountSweep(o Options) *Series {
	s := &Series{ID: "scount", Title: "Reference counter scalability (§4.3)", Unit: "pairs/ms/core"}
	pairs := scale(scountCosts.scountPairs, o.Quick)
	runPoint := func(cores int, o Options, mk func(md *mem.Model) scount.Counter) Point {
		m := o.topo(cores)
		md := mem.NewModel(m)
		e := o.newEngine(m)
		ctr := mk(md)
		for c := 0; c < cores; c++ {
			e.Spawn(c, "churner", 0, func(p *sim.Proc) {
				for i := 0; i < pairs; i++ {
					ctr.Acquire(p, 1)
					p.AdvanceUser(scountCosts.scountHoldWork) // hold the reference briefly
					ctr.Release(p, 1)
				}
			})
		}
		e.Run()
		ms := topo.CyclesToMicros(e.Now()) / 1e3
		return Point{
			PerCore:    float64(pairs) / ms,
			UserMicros: topo.CyclesToMicros(e.TotalUserCycles()) / float64(pairs*cores),
			SysMicros:  topo.CyclesToMicros(e.TotalSysCycles()) / float64(pairs*cores),
		}
	}
	o.runGrid(s, []variantRun{
		{"Shared atomic", func(c int, o Options) Point {
			return runPoint(c, o, func(md *mem.Model) scount.Counter { s := scount.NewShared(md, 0); return &s })
		}},
		{"Sloppy", func(c int, o Options) Point {
			return runPoint(c, o, func(md *mem.Model) scount.Counter { return scount.NewSloppy(md, 0) })
		}},
	})
	s.Notes = append(s.Notes,
		"Shared collapses as every pair serializes on one line; Sloppy stays flat (core-local spares)")
	return s
}

// runAblations enables each Figure-1 fix alone on a stock kernel and runs
// the fix's most affected application at 48 cores, reporting the gain over
// stock — the evidence that each modeled fix does something. Both runs
// carry the application-side change the paper pairs with PK, so the fix
// is the only difference between them.
func runAblations(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "ablate", Title: fmt.Sprintf("Per-fix ablations at %d cores (Figure 1)", max)}

	// Each fix needs a baseline and a fix-enabled measurement.
	pts, errs := o.fanOut(s, 2*len(kernel.Fixes), func(i int) (string, int, func(int, Options) Point) {
		f := kernel.Fixes[i/2]
		a := mosAppNamed(ablationApp(f.Name))
		label, cfg := f.Name+"/stock", kernel.Stock()
		if i%2 == 1 {
			label = f.Name + "/fix"
			*f.Flag(&cfg) = true
		}
		return label, max, func(c int, o Options) Point {
			return Point{PerCore: a.run(cfg, true, c, o).PerCore() * a.unit}
		}
	})
	for i, f := range kernel.Fixes {
		if errs[i*2] != nil || errs[i*2+1] != nil {
			s.Notes = append(s.Notes, fmt.Sprintf("%-22s alone: skipped: %s",
				f.Name, rowSkipReason(errs[i*2:i*2+2])))
			continue
		}
		s.Notes = append(s.Notes, fmt.Sprintf("%-22s alone: %+6.1f%%  (apps: %s)",
			f.Name, (pts[i*2+1].PerCore/pts[i*2].PerCore-1)*100, ablationApp(f.Name)))
	}
	return s
}

// ablationApp names the app ablate measures a fix on: one of the fix's
// Apps that exercises it hardest.
func ablationApp(fix string) string {
	switch fix {
	case "parallel-accept":
		return "Apache"
	case "dst-ref", "proto-mem", "dma-buffers", "netdev-false-sharing",
		"inode-lists", "dcache-lists":
		return "memcached"
	case "lseek-mutex":
		return "PostgreSQL"
	case "superpage-locking", "superpage-zeroing":
		return "Metis"
	default: // VFS fixes and page-false-sharing: Exim is the heaviest path-walk user
		return "Exim"
	}
}
