package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/harness"
)

// metricDef names a metric, its unit, and which direction is better.
// BENCHMARK.json lists the same definitions (TestBenchmarkJSONMatchesCode).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, each the median
// over a run's untraced repetitions. Points attempted and failed are the
// result line's attempted and failed counts.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},       // timed phase, host wall clock
	{"cpu_s", "s", "lower"},        // timed phase, host user+sys CPU
	{"setup_s", "s", "lower"},      // spawn to ready: process start, init, priming
	{"peak_rss_mb", "MB", "lower"}, // child's maximum resident set
	{"alloc_mb", "MB", "lower"},    // heap bytes allocated in the timed phase
	{"allocs", "count", "lower"},   // heap objects allocated in the timed phase
}

// spanMetrics are the per-layer metrics read off the harness spans of the
// traced repetition, plus its cache counters and the tracing overhead.
var spanMetrics = []metricDef{
	{"harness.cache_open_ms", "ms", "lower"},
	{"harness.sweep_s", "s", "lower"},
	{"harness.csv_ms", "ms", "lower"},
	{"harness.cache_save_ms", "ms", "lower"},
	{"harness.cache_hits", "count", "higher"},
	{"harness.cache_misses", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// simMetrics are simulated-side values read off the series. They are
// exact: a change that only speeds up the simulator must leave them
// identical. A workload whose experiments do not produce one reports 0.
var simMetrics = []metricDef{
	{"apps.stock_retention", "ratio", "higher"},       // fig4 Stock per-core, 48 cores over 1
	{"apps.pk_retention", "ratio", "higher"},          // fig4 PK per-core, 48 cores over 1
	{"load.shed_goodput_frac_200", "ratio", "higher"}, // latload PK shed goodput at 200%, over its peak
	{"load.fifo_p99_us_200", "us", "lower"},           // latload PK fifo p99 latency at 200%
	{"mem.dram_util_max_48c", "ratio", "lower"},       // busiest DRAM controller, fig9-11 at 48 cores
	{"mem.link_util_max_48c", "ratio", "lower"},       // busiest HT link, fig9-11 at 48 cores
}

// perLayer lists every per-layer metric in report order: host CPU by
// layer from the profile, the spans, the probes, and the simulated-side
// values.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".self_cpu_s", "s", "lower"},
			metricDef{l + ".incl_cpu_s", "s", "lower"})
	}
	defs = append(defs,
		metricDef{"sim.handoff_cpu_s", "s", "lower"},
		metricDef{bucketGC + "_cpu_s", "s", "lower"},
		metricDef{bucketSched + "_cpu_s", "s", "lower"})
	defs = append(defs, spanMetrics...)
	for _, p := range probes {
		unit := "ns"
		if p.perUS {
			unit = "us"
		}
		defs = append(defs, metricDef{p.name, unit, "lower"})
	}
	return append(defs, simMetrics...)
}

// layerValues turns an attribution into the per-layer CPU metrics, in
// seconds.
func layerValues(a attribution) map[string]float64 {
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".self_cpu_s"] = float64(a.self[l]) / 1e9
		v[l+".incl_cpu_s"] = float64(a.incl[l]) / 1e9
	}
	v["sim.handoff_cpu_s"] = float64(a.handoff) / 1e9
	v[bucketGC+"_cpu_s"] = float64(a.self[bucketGC]) / 1e9
	v[bucketSched+"_cpu_s"] = float64(a.self[bucketSched]) / 1e9
	return v
}

// spanValues turns a repetition's span totals (microseconds by span name)
// and cache counters into the harness metrics.
func spanValues(totalUS map[string]float64, hits, misses int64) map[string]float64 {
	sweepUS := 0.0
	for name, us := range totalUS {
		if strings.HasPrefix(name, "sweep:") {
			sweepUS += us
		}
	}
	return map[string]float64{
		"harness.cache_open_ms": totalUS["cache_open"] / 1e3,
		"harness.sweep_s":       sweepUS / 1e6,
		"harness.csv_ms":        totalUS["csv"] / 1e3,
		"harness.cache_save_ms": totalUS["cache_save"] / 1e3,
		"harness.cache_hits":    float64(hits),
		"harness.cache_misses":  float64(misses),
	}
}

// simValues reads the simulated-side values off a repetition's series.
func simValues(series []*harness.Series) map[string]float64 {
	v := map[string]float64{}
	for _, d := range simMetrics {
		v[d.name] = 0
	}
	for _, s := range series {
		switch s.ID {
		case "fig4":
			v["apps.stock_retention"] = retention(s, "Stock")
			v["apps.pk_retention"] = retention(s, "PK")
		case "latload":
			peak := 0.0
			for _, q := range s.Points {
				if q.Variant == "PK shed" {
					peak = math.Max(peak, q.PerCore)
				}
			}
			if p, ok := s.Get("PK shed", 200); ok && peak > 0 {
				v["load.shed_goodput_frac_200"] = p.PerCore / peak
			}
			if p, ok := s.Get("PK fifo", 200); ok {
				v["load.fifo_p99_us_200"] = p.P99Micros
			}
		case "fig9", "fig10", "fig11":
			for _, p := range s.Points {
				if p.Cores != 48 {
					continue
				}
				for _, u := range p.DRAMUtil {
					v["mem.dram_util_max_48c"] = math.Max(v["mem.dram_util_max_48c"], u)
				}
				for _, u := range p.LinkUtil {
					v["mem.link_util_max_48c"] = math.Max(v["mem.link_util_max_48c"], u)
				}
			}
		}
	}
	return v
}

// retention is a variant's per-core throughput at 48 cores over 1 core.
func retention(s *harness.Series, variant string) float64 {
	p1, ok1 := s.Get(variant, 1)
	p48, ok48 := s.Get(variant, 48)
	if !ok1 || !ok48 || p1.PerCore == 0 {
		return 0
	}
	return p48.PerCore / p1.PerCore
}

// stat summarizes one metric over a run's repetitions.
type stat struct {
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func summarize(values []float64, unit string) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stat{Median: median(s), Max: s[len(s)-1], N: len(s), Unit: unit, Values: values}
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartiles of sorted values by the
// "exclusive" method of Python's statistics.quantiles(n=4), the method the
// benchmark's acceptance check uses. It needs at least two values.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
