package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// scale reduces an op budget for quick runs.
func scale(n int, quick bool) int {
	if quick {
		n /= 4
		if n < 5 {
			n = 5
		}
	}
	return n
}

// point converts an app result to a harness point; safeCachedPoint names
// it.
func point(r apps.Result, perCoreScale float64) Point {
	return Point{
		PerCore:        r.PerCore() * perCoreScale,
		UserMicros:     r.UserMicrosPerOp(),
		SysMicros:      r.SysMicrosPerOp(),
		DRAMUtil:       r.DRAMUtil,
		LinkUtil:       r.LinkUtil,
		Retries:        r.RetriesPerOp(),
		Dups:           r.DupsPerOp(),
		OfferedPerCore: r.OfferedPerCore * perCoreScale,
		P50Micros:      r.SojournMicros(0.50),
		P99Micros:      r.SojournMicros(0.99),
		P999Micros:     r.SojournMicros(0.999),
	}
}

// ---- The MOSBENCH applications ----

// mosApp is one MOSBENCH application: which configuration each of the
// paper's curves runs is decided by its callers, how it runs by run.
type mosApp struct {
	// name spells the application as kernel.Fix.Apps does.
	name string
	// key names its "apps/<key>" cost domain.
	key string
	// attribution is Figure 12's reading of its residual bottleneck.
	attribution string
	// unit scales per-core ops/s to its figure's unit: 3600 for the
	// per-hour figures (9–11), 1 otherwise.
	unit float64
	// run boots a kernel of cfg and runs the application on it; mod is
	// the application-side change the paper pairs with PK (PostgreSQL's
	// modified lock manager, pedsort's processes spread round-robin,
	// Metis's 2 MB pages), which the other applications do not have.
	// Every run boots through o.newKernel, so a sweep worker's pooled
	// engine is reused point to point instead of being rebuilt.
	run func(cfg kernel.Config, mod bool, cores int, o Options) apps.Result
}

// mosApps are the seven applications in Figure 3's order.
var mosApps = []mosApp{
	{"Exim", "exim", "App: Contention on spool directories", 1,
		func(cfg kernel.Config, _ bool, cores int, o Options) apps.Result {
			opts := apps.DefaultEximOpts()
			opts.MessagesPerCore = scale(opts.MessagesPerCore, o.Quick)
			return apps.RunExim(o.newKernel(o.topo(cores), cfg), opts)
		}},
	{"memcached", "memcached", "HW: Transmit queues on NIC", 1,
		func(cfg kernel.Config, _ bool, cores int, o Options) apps.Result {
			opts := apps.DefaultMemcachedOpts()
			opts.RequestsPerCore = scale(opts.RequestsPerCore, o.Quick)
			return apps.RunMemcached(o.newKernel(o.topo(cores), cfg), opts)
		}},
	// Stock Apache runs one instance per core on distinct ports (§5.4).
	{"Apache", "apache", "HW: Receive queues on NIC", 1,
		func(cfg kernel.Config, _ bool, cores int, o Options) apps.Result {
			opts := apps.DefaultApacheOpts()
			opts.RequestsPerCore = scale(opts.RequestsPerCore, o.Quick)
			return apps.RunApache(o.newKernel(o.topo(cores), cfg), opts)
		}},
	{"PostgreSQL", "postgres", "App: Application-level spin lock", 1,
		func(cfg kernel.Config, mod bool, cores int, o Options) apps.Result {
			return runPostgres(cfg, cores, 0, mod, o)
		}},
	{"gmake", "gmake", "App: Serial stages and stragglers", 3600,
		func(cfg kernel.Config, _ bool, cores int, o Options) apps.Result {
			opts := apps.DefaultGmakeOpts()
			opts.Objects = scale(opts.Objects, o.Quick)
			opts.Placement = o.Placement
			return apps.RunGmake(o.newKernel(o.topo(cores), cfg), opts)
		}},
	// pedsort always runs on a stock kernel: its change is the
	// application's own, one thread per core becoming one process per
	// core spread round-robin.
	{"pedsort", "pedsort", "HW: Cache capacity", 3600,
		func(_ kernel.Config, mod bool, cores int, o Options) apps.Result {
			return runPedsort(!mod, mod, cores, o)
		}},
	// Metis boots on round-robin cores, for more total L3 and DRAM.
	{"Metis", "metis", "HW: DRAM throughput", 3600,
		func(cfg kernel.Config, mod bool, cores int, o Options) apps.Result {
			opts := apps.DefaultMetisOpts()
			if o.Quick {
				opts.InputBytes /= 4
			}
			opts.SuperPages = mod
			opts.Placement = o.Placement
			return apps.RunMetis(o.newKernel(o.topoRR(cores), cfg), opts)
		}},
}

// mosAppNamed returns the application kernel.Fix.Apps calls name; it
// panics on any other name, which is a programming error.
func mosAppNamed(name string) *mosApp {
	for i := range mosApps {
		if mosApps[i].name == name {
			return &mosApps[i]
		}
	}
	panic(fmt.Sprintf("harness: no MOSBENCH application %q", name))
}

// runAs runs a on the stock kernel or, with pk, on PK together with the
// application-side change the paper pairs with it.
func (a *mosApp) runAs(pk bool, cores int, o Options) apps.Result {
	cfg := kernel.Stock()
	if pk {
		cfg = kernel.PK()
	}
	return a.run(cfg, pk, cores, o)
}

// curve is a's stock or PK curve in its figure's unit, labeled label;
// striped stripes its bulk data across every chip's memory controller.
func (a *mosApp) curve(label string, pk, striped bool) variantRun {
	return variantRun{label, func(c int, o Options) Point {
		if striped {
			o.Placement = mem.Placement{Kind: mem.PlaceStriped}
		}
		return point(a.runAs(pk, c, o), a.unit)
	}}
}

// pair is a's Stock and PK curves.
func (a *mosApp) pair() []variantRun {
	return []variantRun{a.curve("Stock", false, false), a.curve("PK", true, false)}
}

// runPostgres runs PostgreSQL with writeFrac of its queries writes; mod
// is the paper's modified lock manager.
func runPostgres(cfg kernel.Config, cores int, writeFrac float64, mod bool, o Options) apps.Result {
	k := o.newKernel(o.topo(cores), cfg)
	opts := apps.DefaultPostgresOpts()
	opts.QueriesPerCore = scale(opts.QueriesPerCore, o.Quick)
	opts.WriteFraction = writeFrac
	opts.ModPG = mod
	opts.Placement = o.Placement
	return apps.RunPostgres(k, opts)
}

// runPedsort runs pedsort on threads or processes, with the active cores
// packed onto the fewest chips or, with rr, spread round-robin across
// them for more total L3.
func runPedsort(threads, rr bool, cores int, o Options) apps.Result {
	m := o.topo(cores)
	if rr {
		m = o.topoRR(cores)
	}
	k := o.newKernel(m, kernel.Stock())
	opts := apps.DefaultPedsortOpts()
	opts.Files = scale(opts.Files, o.Quick)
	opts.Threads = threads
	opts.Placement = o.Placement
	return apps.RunPedsort(k, opts)
}

// gridSeries runs a grid experiment's variants over o's sweep.
func gridSeries(o Options, id, title, unit string, runs ...variantRun) *Series {
	s := &Series{ID: id, Title: title, Unit: unit}
	o.runGrid(s, runs)
	return s
}

// stockPK runs app's Stock and PK curves, then any extra variants (a
// figure's own placement curve, say).
func stockPK(o Options, app, id, title, unit string, extras ...variantRun) *Series {
	return gridSeries(o, id, title, unit, append(mosAppNamed(app).pair(), extras...)...)
}

// ---- Experiment registrations ----

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Kernel scalability problems and fixes",
		Paper: "Figure 1: the 16 bottlenecks and their PK solutions",
		Run: func(o Options) *Series {
			s := &Series{ID: "fig1", Title: "Kernel scalability problems and fixes (Figure 1)"}
			for _, f := range kernel.Fixes {
				s.Notes = append(s.Notes,
					fmt.Sprintf("%-22s [%s]", f.Name, strings.Join(f.Apps, ", ")),
					"  problem:  "+f.Problem,
					"  solution: "+f.Solution)
			}
			return s
		},
	})

	register(Experiment{
		ID:      "fig3",
		Title:   "MOSBENCH summary: 48-core per-core throughput relative to 1 core",
		Paper:   "Figure 3: one bar pair (stock, PK) per application",
		Domains: withAllApps(),
		Run:     runFig3,
	})

	register(Experiment{
		ID:      "fig4",
		Title:   "Exim throughput and runtime breakdown",
		Paper:   "Figure 4: messages/sec/core and CPU us/message vs cores",
		Domains: withApps("exim"),
		Run: func(o Options) *Series {
			return stockPK(o, "Exim", "fig4", "Exim (Figure 4)", "msg/s/core")
		},
	})

	register(Experiment{
		ID:      "fig5",
		Title:   "memcached throughput",
		Paper:   "Figure 5: requests/sec/core vs cores",
		Domains: withApps("memcached"),
		Run: func(o Options) *Series {
			return stockPK(o, "memcached", "fig5", "memcached (Figure 5)", "req/s/core")
		},
	})

	register(Experiment{
		ID:      "fig6",
		Title:   "Apache throughput and runtime breakdown",
		Paper:   "Figure 6: requests/sec/core and CPU us/request vs cores",
		Domains: withApps("apache"),
		Run: func(o Options) *Series {
			return stockPK(o, "Apache", "fig6", "Apache (Figure 6)", "req/s/core")
		},
	})

	register(Experiment{
		ID:      "fig7",
		Title:   "PostgreSQL read-only workload",
		Paper:   "Figure 7: queries/sec/core and CPU us/query vs cores",
		Domains: withApps("postgres"),
		Run:     func(o Options) *Series { return runPostgresFig(o, "fig7", 0) },
	})

	register(Experiment{
		ID:      "fig8",
		Title:   "PostgreSQL 95%/5% read/write workload",
		Paper:   "Figure 8: queries/sec/core and CPU us/query vs cores",
		Domains: withApps("postgres"),
		Run:     func(o Options) *Series { return runPostgresFig(o, "fig8", 0.05) },
	})

	// Figures 9–11 each register a placement variant: the PK curve with
	// its bulk data striped across every chip, so the figure itself shows
	// what placement does to the curve instead of requiring a second run
	// with the global -placement knob.
	register(Experiment{
		ID:      "fig9",
		Title:   "gmake parallel kernel build",
		Paper:   "Figure 9: builds/hour/core and CPU sec/build vs cores, plus a striped-placement PK curve",
		Domains: withApps("gmake"),
		Run: func(o Options) *Series {
			return stockPK(o, "gmake", "fig9", "gmake (Figure 9)", "builds/hr/core",
				mosAppNamed("gmake").curve("PK + striped", true, true))
		},
	})

	register(Experiment{
		ID:      "fig10",
		Title:   "Psearchy/pedsort file indexing",
		Paper:   "Figure 10: jobs/hour/core for Threads, Procs, Procs RR, plus a striped-placement RR curve",
		Domains: withApps("pedsort"),
		Run: func(o Options) *Series {
			a := mosAppNamed("pedsort")
			return gridSeries(o, "fig10", "pedsort (Figure 10)", "jobs/hr/core",
				// The original: one thread per core in one address space.
				a.curve("Stock + Threads", false, false),
				// One process per core (the paper's ~10-line fix), packed.
				variantRun{"Stock + Procs", func(c int, o Options) Point {
					return point(runPedsort(false, false, c, o), a.unit)
				}},
				// pedsort's PK curve, still on a stock kernel: processes
				// spread round-robin across chips, for more total L3.
				a.curve("Stock + Procs RR", true, false),
				a.curve("Procs RR + striped", true, true))
		},
	})

	register(Experiment{
		ID:      "fig11",
		Title:   "Metis MapReduce inverted index",
		Paper:   "Figure 11: jobs/hour/core for 4KB stock vs 2MB PK, plus a striped-placement PK curve",
		Domains: withApps("metis"),
		Run: func(o Options) *Series {
			a := mosAppNamed("Metis")
			return gridSeries(o, "fig11", "Metis (Figure 11)", "jobs/hr/core",
				a.curve("Stock + 4KB pages", false, false),
				a.curve("PK + 2MB pages", true, false),
				a.curve("PK + 2MB striped", true, true))
		},
	})

	register(Experiment{
		ID:      "fig12",
		Title:   "Remaining MOSBENCH bottlenecks at 48 cores on PK",
		Paper:   "Figure 12: residual bottleneck attribution (App vs HW)",
		Domains: withAllApps(),
		Run:     runFig12,
	})
}

// runPostgresFig produces the three-variant PostgreSQL figure.
func runPostgresFig(o Options, id string, writeFrac float64) *Series {
	title := "PostgreSQL read-only (Figure 7)"
	if writeFrac > 0 {
		title = "PostgreSQL 95/5 read/write (Figure 8)"
	}
	var runs []variantRun
	for _, v := range []struct {
		name string
		cfg  kernel.Config
		mod  bool
	}{
		{"Stock", kernel.Stock(), false},
		{"Stock + mod PG", kernel.Stock(), true},
		{"PK + mod PG", kernel.PK(), true},
	} {
		runs = append(runs, variantRun{v.name, func(c int, o Options) Point {
			return point(runPostgres(v.cfg, c, writeFrac, v.mod, o), 1)
		}})
	}
	return gridSeries(o, id, title, "q/s/core", runs...)
}

// runFig3 computes the summary bars: per-core throughput at 48 cores
// relative to 1 core, stock vs PK, per application. Its ratios are of raw
// ops/s, whatever each application's figure unit.
func runFig3(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "fig3", Title: "MOSBENCH summary (Figure 3)",
		Unit: fmt.Sprintf("ratio %dc/1c", max)}
	s.Notes = append(s.Notes, "Table rows are applications, in Figure 3's order:")
	// Each application needs four independent measurements: stock and PK,
	// each at 1 and at max cores.
	results, errs := o.fanOut(s, len(mosApps)*4, func(i int) (string, int, func(int, Options) Point) {
		a, pk := &mosApps[i/4], i%4 >= 2
		label := a.name + "/Stock"
		if pk {
			label = a.name + "/PK"
		}
		cores := 1
		if i%2 == 1 {
			cores = max
		}
		return label, cores, func(c int, o Options) Point { return point(a.runAs(pk, c, o), 1) }
	})
	for i, a := range mosApps {
		if errs[i*4] != nil || errs[i*4+1] != nil || errs[i*4+2] != nil || errs[i*4+3] != nil {
			s.Notes = append(s.Notes, fmt.Sprintf("  row %d: %-12s skipped: %s", i+1, a.name,
				rowSkipReason(errs[i*4:i*4+4])))
			continue
		}
		s1, s48, p1, p48 := results[i*4], results[i*4+1], results[i*4+2], results[i*4+3]
		stockRatio := s48.PerCore / s1.PerCore
		pkRatio := p48.PerCore / p1.PerCore
		// The Cores column carries the application ordinal so the table
		// renders one application per row.
		s.Points = append(s.Points,
			Point{Cores: i + 1, Variant: "Stock", PerCore: stockRatio},
			Point{Cores: i + 1, Variant: "PK", PerCore: pkRatio})
		s.Notes = append(s.Notes, fmt.Sprintf("  row %d: %-12s stock %.2f   PK %.2f",
			i+1, a.name, stockRatio, pkRatio))
	}
	return s
}

// runFig12 classifies the residual 48-core bottleneck per application,
// pairing the paper's attribution with this reproduction's measurement.
func runFig12(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "fig12",
		Title: fmt.Sprintf("Remaining bottlenecks at %d cores (Figure 12)", max)}
	// Two independent measurements per row: 1 and max cores.
	pts, errs := o.fanOut(s, len(mosApps)*2, func(i int) (string, int, func(int, Options) Point) {
		a := &mosApps[i/2]
		cores := 1
		if i%2 == 1 {
			cores = max
		}
		return a.name, cores, func(c int, o Options) Point { return point(a.runAs(true, c, o), 1) }
	})
	for i, a := range mosApps {
		if errs[i*2] != nil || errs[i*2+1] != nil {
			s.Notes = append(s.Notes,
				fmt.Sprintf("%-12s %-42s skipped: %s", a.name, a.attribution, rowSkipReason(errs[i*2:i*2+2])))
			continue
		}
		retained := pts[i*2+1].PerCore / pts[i*2].PerCore
		s.Notes = append(s.Notes,
			fmt.Sprintf("%-12s %-42s per-core retention at %dc: %.2f", a.name, a.attribution, max, retained))
	}
	return s
}
