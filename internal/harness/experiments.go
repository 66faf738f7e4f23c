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

// point converts an app result to a harness point.
func point(r apps.Result, variant string, perCoreScale float64) Point {
	return Point{
		Cores:          r.Cores,
		Variant:        variant,
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

// ---- Application runners shared by fig3..fig11 ----
//
// Every runner boots its kernel through o.newKernel, so a sweep worker's
// pooled engine is reused point to point instead of being rebuilt.

func runExim(cfg kernel.Config, cores int, o Options) apps.Result {
	k := o.newKernel(o.topo(cores), cfg)
	opts := apps.DefaultEximOpts()
	opts.MessagesPerCore = scale(opts.MessagesPerCore, o.Quick)
	return apps.RunExim(k, opts)
}

func runMemcached(cfg kernel.Config, cores int, o Options) apps.Result {
	k := o.newKernel(o.topo(cores), cfg)
	opts := apps.DefaultMemcachedOpts()
	opts.RequestsPerCore = scale(opts.RequestsPerCore, o.Quick)
	return apps.RunMemcached(k, opts)
}

func runApache(cfg kernel.Config, cores int, single bool, o Options) apps.Result {
	k := o.newKernel(o.topo(cores), cfg)
	opts := apps.DefaultApacheOpts()
	opts.RequestsPerCore = scale(opts.RequestsPerCore, o.Quick)
	opts.SingleInstance = single
	return apps.RunApache(k, opts)
}

func runPostgres(cfg kernel.Config, cores int, writeFrac float64, mod bool, o Options) apps.Result {
	k := o.newKernel(o.topo(cores), cfg)
	opts := apps.DefaultPostgresOpts()
	opts.QueriesPerCore = scale(opts.QueriesPerCore, o.Quick)
	opts.WriteFraction = writeFrac
	opts.ModPG = mod
	opts.Placement = o.Placement
	return apps.RunPostgres(k, opts)
}

func runGmake(cfg kernel.Config, cores int, o Options) apps.Result {
	k := o.newKernel(o.topo(cores), cfg)
	opts := apps.DefaultGmakeOpts()
	opts.Objects = scale(opts.Objects, o.Quick)
	opts.Placement = o.Placement
	return apps.RunGmake(k, opts)
}

func runPedsort(mode apps.PedsortMode, cores int, o Options) apps.Result {
	m := o.topo(cores)
	if mode == apps.PedsortProcsRR {
		m = o.topoRR(cores)
	}
	k := o.newKernel(m, kernel.Stock())
	opts := apps.DefaultPedsortOpts()
	opts.Files = scale(opts.Files, o.Quick)
	opts.Mode = mode
	opts.Placement = o.Placement
	return apps.RunPedsort(k, opts)
}

func runMetis(super bool, cores int, o Options) apps.Result {
	cfg := kernel.Stock()
	if super {
		cfg = kernel.PK()
	}
	k := o.newKernel(o.topoRR(cores), cfg)
	opts := apps.DefaultMetisOpts()
	if o.Quick {
		opts.InputBytes /= 4
	}
	opts.SuperPages = super
	opts.Placement = o.Placement
	return apps.RunMetis(k, opts)
}

// stockPK runs a two-variant (Stock vs PK) sweep, plus any registered
// extra variants (a figure's own placement curve, say).
func stockPK(o Options, unit string, id, title string,
	run func(cfg kernel.Config, cores int, o Options) apps.Result, perCoreScale float64,
	extras ...variantRun) *Series {

	s := &Series{ID: id, Title: title, Unit: unit}
	var runs []variantRun
	for _, cfgv := range []struct {
		name string
		cfg  kernel.Config
	}{{"Stock", kernel.Stock()}, {"PK", kernel.PK()}} {
		cfgv := cfgv
		runs = append(runs, variantRun{cfgv.name, func(c int, o Options) Point {
			return point(run(cfgv.cfg, c, o), cfgv.name, perCoreScale)
		}})
	}
	runs = append(runs, extras...)
	o.runGrid(s, runs)
	return s
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
			return stockPK(o, "msg/s/core", "fig4", "Exim (Figure 4)", runExim, 1)
		},
	})

	register(Experiment{
		ID:      "fig5",
		Title:   "memcached throughput",
		Paper:   "Figure 5: requests/sec/core vs cores",
		Domains: withApps("memcached"),
		Run: func(o Options) *Series {
			return stockPK(o, "req/s/core", "fig5", "memcached (Figure 5)", runMemcached, 1)
		},
	})

	register(Experiment{
		ID:      "fig6",
		Title:   "Apache throughput and runtime breakdown",
		Paper:   "Figure 6: requests/sec/core and CPU us/request vs cores",
		Domains: withApps("apache"),
		Run: func(o Options) *Series {
			s := &Series{ID: "fig6", Title: "Apache (Figure 6)", Unit: "req/s/core"}
			o.runGrid(s, []variantRun{
				// Stock: one instance per core on distinct ports (§5.4).
				{"Stock", func(c int, o Options) Point {
					return point(runApache(kernel.Stock(), c, false, o), "Stock", 1)
				}},
				{"PK", func(c int, o Options) Point {
					return point(runApache(kernel.PK(), c, true, o), "PK", 1)
				}},
			})
			return s
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

	register(Experiment{
		ID:      "fig9",
		Title:   "gmake parallel kernel build",
		Paper:   "Figure 9: builds/hour/core and CPU sec/build vs cores, plus a striped-placement PK curve",
		Domains: withApps("gmake"),
		Run: func(o Options) *Series {
			// Builds/hour/core: scale jobs/sec/core by 3600. The registered
			// placement variant mirrors fig11's: the PK build with its
			// object stream striped across every chip, so the figure shows
			// placement's effect without a second -placement run.
			return stockPK(o, "builds/hr/core", "fig9", "gmake (Figure 9)", runGmake, 3600,
				variantRun{"PK + striped", func(c int, o Options) Point {
					o.Placement = mem.Placement{Kind: mem.PlaceStriped}
					return point(runGmake(kernel.PK(), c, o), "PK + striped", 3600)
				}})
		},
	})

	register(Experiment{
		ID:      "fig10",
		Title:   "Psearchy/pedsort file indexing",
		Paper:   "Figure 10: jobs/hour/core for Threads, Procs, Procs RR, plus a striped-placement RR curve",
		Domains: withApps("pedsort"),
		Run: func(o Options) *Series {
			s := &Series{ID: "fig10", Title: "pedsort (Figure 10)", Unit: "jobs/hr/core"}
			var runs []variantRun
			for _, mode := range []apps.PedsortMode{apps.PedsortThreads, apps.PedsortProcs, apps.PedsortProcsRR} {
				mode := mode
				runs = append(runs, variantRun{mode.String(), func(c int, o Options) Point {
					return point(runPedsort(mode, c, o), mode.String(), 3600)
				}})
			}
			// Registered placement variant, like fig11's: the round-robin
			// configuration with its file streams striped across every
			// chip's memory controller.
			runs = append(runs, variantRun{"Procs RR + striped", func(c int, o Options) Point {
				o.Placement = mem.Placement{Kind: mem.PlaceStriped}
				return point(runPedsort(apps.PedsortProcsRR, c, o), "Procs RR + striped", 3600)
			}})
			o.runGrid(s, runs)
			return s
		},
	})

	register(Experiment{
		ID:      "fig11",
		Title:   "Metis MapReduce inverted index",
		Paper:   "Figure 11: jobs/hour/core for 4KB stock vs 2MB PK, plus a striped-placement PK curve",
		Domains: withApps("metis"),
		Run: func(o Options) *Series {
			s := &Series{ID: "fig11", Title: "Metis (Figure 11)", Unit: "jobs/hr/core"}
			var runs []variantRun
			for _, super := range []bool{false, true} {
				super, name := super, "Stock + 4KB pages"
				if super {
					name = "PK + 2MB pages"
				}
				runs = append(runs, variantRun{name, func(c int, o Options) Point {
					return point(runMetis(super, c, o), name, 3600)
				}})
			}
			// Registered placement variant: the same PK configuration with
			// its reduce stream striped across every chip, so the figure
			// itself shows what placement does to the curve instead of
			// requiring a second run with the global -placement knob.
			runs = append(runs, variantRun{"PK + 2MB striped", func(c int, o Options) Point {
				o.Placement = mem.Placement{Kind: mem.PlaceStriped}
				return point(runMetis(true, c, o), "PK + 2MB striped", 3600)
			}})
			o.runGrid(s, runs)
			return s
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
	s := &Series{ID: id, Title: title, Unit: "q/s/core"}
	variants := []struct {
		name string
		cfg  kernel.Config
		mod  bool
	}{
		{"Stock", kernel.Stock(), false},
		{"Stock + mod PG", kernel.Stock(), true},
		{"PK + mod PG", kernel.PK(), true},
	}
	var runs []variantRun
	for _, v := range variants {
		v := v
		runs = append(runs, variantRun{v.name, func(c int, o Options) Point {
			return point(runPostgres(v.cfg, c, writeFrac, v.mod, o), v.name, 1)
		}})
	}
	o.runGrid(s, runs)
	return s
}

// paperApps are Figure 3's and Figure 12's applications in the figures'
// order: the paper's attribution of each one's remaining bottleneck at 48
// cores (Figure 12), and its stock and PK runs.
var paperApps = []struct {
	name, attribution string
	stock, pk         func(cores int, o Options) apps.Result
}{
	{"Exim", "App: Contention on spool directories",
		func(c int, o Options) apps.Result { return runExim(kernel.Stock(), c, o) },
		func(c int, o Options) apps.Result { return runExim(kernel.PK(), c, o) }},
	{"memcached", "HW: Transmit queues on NIC",
		func(c int, o Options) apps.Result { return runMemcached(kernel.Stock(), c, o) },
		func(c int, o Options) apps.Result { return runMemcached(kernel.PK(), c, o) }},
	{"Apache", "HW: Receive queues on NIC",
		func(c int, o Options) apps.Result { return runApache(kernel.Stock(), c, false, o) },
		func(c int, o Options) apps.Result { return runApache(kernel.PK(), c, true, o) }},
	{"PostgreSQL", "App: Application-level spin lock",
		func(c int, o Options) apps.Result { return runPostgres(kernel.Stock(), c, 0, false, o) },
		func(c int, o Options) apps.Result { return runPostgres(kernel.PK(), c, 0, true, o) }},
	{"gmake", "App: Serial stages and stragglers",
		func(c int, o Options) apps.Result { return runGmake(kernel.Stock(), c, o) },
		func(c int, o Options) apps.Result { return runGmake(kernel.PK(), c, o) }},
	{"pedsort", "HW: Cache capacity",
		func(c int, o Options) apps.Result { return runPedsort(apps.PedsortThreads, c, o) },
		func(c int, o Options) apps.Result { return runPedsort(apps.PedsortProcsRR, c, o) }},
	{"Metis", "HW: DRAM throughput",
		func(c int, o Options) apps.Result { return runMetis(false, c, o) },
		func(c int, o Options) apps.Result { return runMetis(true, c, o) }},
}

// runFig3 computes the summary bars: per-core throughput at 48 cores
// relative to 1 core, stock vs PK, per application.
func runFig3(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "fig3", Title: "MOSBENCH summary (Figure 3)",
		Unit: fmt.Sprintf("ratio %dc/1c", max)}
	s.Notes = append(s.Notes, "Table rows are applications, in Figure 3's order:")
	// Each application needs four independent measurements: stock and PK,
	// each at 1 and at max cores.
	results, errs := o.fanOut(s, len(paperApps)*4, func(i int) (string, int, func(int, Options) Point) {
		a := paperApps[i/4]
		label, run := a.name+"/Stock", a.stock
		if i%4 >= 2 {
			label, run = a.name+"/PK", a.pk
		}
		cores := 1
		if i%2 == 1 {
			cores = max
		}
		return label, cores, func(c int, o Options) Point { return point(run(c, o), label, 1) }
	})
	for i, a := range paperApps {
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
	pts, errs := o.fanOut(s, len(paperApps)*2, func(i int) (string, int, func(int, Options) Point) {
		a := paperApps[i/2]
		cores := 1
		if i%2 == 1 {
			cores = max
		}
		return a.name, cores, func(c int, o Options) Point { return point(a.pk(c, o), a.name, 1) }
	})
	for i, a := range paperApps {
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
