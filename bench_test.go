// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation section (`mosbench -list` and harness.Experiments()
// list the experiments). Each benchmark runs the corresponding experiment
// and reports the figure's headline quantities as custom metrics, so
// `go test -bench=. -benchmem` prints the series the paper reports.
//
// Quick options are used so a full -bench=. sweep completes in minutes;
// run the cmd/mosbench CLI for full-resolution sweeps.
package repro

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/sloppy"
)

func benchOpts() harness.Options { return harness.Options{Quick: true, Seed: 1} }

// runExperiment runs one registered experiment b.N times and returns the
// last series.
func runExperiment(b *testing.B, id string) *harness.Series {
	b.Helper()
	e := harness.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var s *harness.Series
	for i := 0; i < b.N; i++ {
		s = e.Run(benchOpts())
	}
	return s
}

// reportRatio reports per-core retention (48c vs 1c) for a variant.
func reportRatio(b *testing.B, s *harness.Series, variant, metric string) {
	b.Helper()
	p1, ok1 := s.Get(variant, 1)
	p48, ok48 := s.Get(variant, 48)
	if !ok1 || !ok48 || p1.PerCore == 0 {
		b.Fatalf("missing %s points in %s", variant, s.ID)
	}
	b.ReportMetric(p48.PerCore/p1.PerCore, metric)
	// Metric units must not contain whitespace.
	label := strings.ReplaceAll(variant, " ", "")
	b.ReportMetric(p48.PerCore, label+"-48c-percore")
}

// BenchmarkQuickSweep runs one quick-mode application sweep in both sweep
// modes, so the wall-clock gain of the concurrent executor is measurable
// in-repo: compare the serial and parallel ns/op.
func BenchmarkQuickSweep(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"parallel", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := harness.ByID("fig5")
			for i := 0; i < b.N; i++ {
				e.Run(harness.Options{Quick: true, Seed: 1, Serial: mode.serial})
			}
		})
	}
}

func BenchmarkFig1Ablations(b *testing.B) {
	s := runExperiment(b, "ablate")
	b.ReportMetric(float64(len(s.Notes)), "fixes-ablated")
}

func BenchmarkSloppyVsShared(b *testing.B) {
	// Figure 2 / §4.3 as a real-machine measurement: contended
	// acquire/release pairs per second, sloppy vs one shared atomic.
	b.Run("sloppy", func(b *testing.B) {
		c := sloppy.New()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Acquire(1)
				c.Release(1)
			}
		})
	})
	b.Run("shared-atomic", func(b *testing.B) {
		var n atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n.Add(1)
				n.Add(-1)
			}
		})
	})
}

func BenchmarkFig3Summary(b *testing.B) {
	s := runExperiment(b, "fig3")
	// Report each application's PK retention ratio — the PK bars of
	// Figure 3. The Cores field carries the application ordinal.
	apps := []string{"", "Exim", "memcached", "Apache", "PostgreSQL", "gmake", "pedsort", "Metis"}
	for _, p := range s.Points {
		if p.Variant == "PK" && p.Cores < len(apps) {
			b.ReportMetric(p.PerCore, apps[p.Cores]+"-pk-ratio")
		}
	}
}

func BenchmarkFig4Exim(b *testing.B) {
	s := runExperiment(b, "fig4")
	reportRatio(b, s, "Stock", "stock-retention")
	reportRatio(b, s, "PK", "pk-retention")
}

func BenchmarkFig5Memcached(b *testing.B) {
	s := runExperiment(b, "fig5")
	reportRatio(b, s, "Stock", "stock-retention")
	reportRatio(b, s, "PK", "pk-retention")
}

func BenchmarkFig6Apache(b *testing.B) {
	s := runExperiment(b, "fig6")
	reportRatio(b, s, "Stock", "stock-retention")
	reportRatio(b, s, "PK", "pk-retention")
}

func BenchmarkFig7PostgresRO(b *testing.B) {
	s := runExperiment(b, "fig7")
	reportRatio(b, s, "Stock", "stock-retention")
	reportRatio(b, s, "PK + mod PG", "pkmod-retention")
}

func BenchmarkFig8PostgresRW(b *testing.B) {
	s := runExperiment(b, "fig8")
	reportRatio(b, s, "Stock", "stock-retention")
	reportRatio(b, s, "Stock + mod PG", "stockmod-retention")
	reportRatio(b, s, "PK + mod PG", "pkmod-retention")
}

func BenchmarkFig9Gmake(b *testing.B) {
	s := runExperiment(b, "fig9")
	p1, _ := s.Get("Stock", 1)
	p48, ok := s.Get("Stock", 48)
	if !ok || p1.PerCore == 0 {
		b.Fatal("missing gmake points")
	}
	b.ReportMetric(p48.PerCore*48/p1.PerCore, "speedup-48c")
}

func BenchmarkFig10Pedsort(b *testing.B) {
	s := runExperiment(b, "fig10")
	threads, _ := s.Get("Stock + Threads", 48)
	procs, _ := s.Get("Stock + Procs", 48)
	rr, _ := s.Get("Stock + Procs RR", 8)
	packed, _ := s.Get("Stock + Procs", 8)
	if procs.PerCore == 0 || packed.PerCore == 0 {
		b.Fatal("missing pedsort points")
	}
	b.ReportMetric(threads.PerCore/procs.PerCore, "threads-vs-procs-48c")
	b.ReportMetric(rr.PerCore/packed.PerCore, "rr-vs-packed-8c")
}

func BenchmarkFig11Metis(b *testing.B) {
	s := runExperiment(b, "fig11")
	small, _ := s.Get("Stock + 4KB pages", 48)
	super, ok := s.Get("PK + 2MB pages", 48)
	if !ok || small.PerCore == 0 {
		b.Fatal("missing Metis points")
	}
	b.ReportMetric(super.PerCore/small.PerCore, "superpage-speedup-48c")
}

func BenchmarkFig12Residuals(b *testing.B) {
	s := runExperiment(b, "fig12")
	b.ReportMetric(float64(len(s.Notes)), "apps-classified")
}

func BenchmarkHWLatencies(b *testing.B) {
	s := runExperiment(b, "tbl-hw")
	if len(s.Notes) < 6 {
		b.Fatal("latency table incomplete")
	}
}

func BenchmarkDMAAblation(b *testing.B) {
	s := runExperiment(b, "dma")
	node0, _ := s.Get("node-0 pool", 48)
	local, ok := s.Get("local pools", 48)
	if !ok || node0.PerCore == 0 {
		b.Fatal("missing DMA ablation points")
	}
	b.ReportMetric((local.PerCore/node0.PerCore-1)*100, "local-gain-pct")
}

func BenchmarkNICEnvelope(b *testing.B) {
	s := runExperiment(b, "nic-env")
	p48, ok := s.Get("UDP echo", 48)
	if !ok {
		b.Fatal("missing NIC envelope point")
	}
	b.ReportMetric(p48.PerCore, "Mpps-48c")
}
