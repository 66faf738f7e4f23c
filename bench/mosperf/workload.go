package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
)

// grid14 is the paper's 1..48 x-axis at every fourth core count (plus 1
// and 2): it keeps the collapse region of every curve while holding a
// cold repetition to ~2-3 s of host time on a 2-core machine, so a run
// gets enough repetitions for a stable median.
var grid14 = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48}

// workload is one fixed input: the experiments a repetition runs, in
// order, and the options they run under. Every repetition is a closed-loop
// batch of sweep points, two in flight (the harness's GOMAXPROCS sweep
// workers on a 2-core host).
type workload struct {
	name  string
	exps  []string
	quick bool
	cores []int // nil: each experiment's default sweep
	// passes > 0 makes this a replay workload: set-up primes a cache with
	// the experiments, and each repetition replays them passes times from
	// that cache (open, run, CSV, save) without simulating.
	passes int
}

// workloads is the benchmark's fixed set. BENCHMARK.json names the same
// four, with the reason each was chosen (TestBenchmarkJSONMatchesCode).
var workloads = []workload{
	// Exim's collapse (Figure 4): goroutine handoff, VFS path walks and
	// locks, and mem's coherence half.
	{name: "exim-grid", exps: []string{"fig4"}, cores: grid14},
	// Open-loop memcached at 48 cores, 25..200% offered load, shed vs
	// FIFO: netsim and load, almost no allocation, handoff-bound.
	{name: "memcached-overload", exps: []string{"latload"}},
	// The streaming apps with every placement variant: mem's bandwidth
	// half (controllers, links) and mm's page faults.
	{name: "stream-grid", exps: []string{"fig9", "fig10", "fig11"}, cores: grid14},
	// The read side of the sweep-point cache; no simulation at all.
	{name: "cache-replay", exps: []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"},
		quick: true, cores: harness.DefaultCores, passes: 1000},
}

// workloadByName returns the named workload, or an error listing the
// valid names.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// span is one timed interval of a repetition, in microseconds from the
// start of its timed phase.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// maxSpans caps the spans a repetition keeps for trace.json: a replay
// repetition makes ~11 per pass, thousands in all. Every span still counts
// in the per-name totals the metrics use.
const maxSpans = 256

// recorder keeps a repetition's spans in memory; they are written out
// only when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
	// totalUS is the summed duration of every span, by name.
	totalUS map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), totalUS: map[string]float64{}}
}

// do runs f inside a span named name.
func (r *recorder) do(name string, f func()) {
	start := time.Now()
	f()
	dur := float64(time.Since(start).Nanoseconds()) / 1e3
	r.totalUS[name] += dur
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Name: name, StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3, DurUS: dur})
	}
}

// repOutput is what one repetition's timed phase produced.
type repOutput struct {
	// CSV is every experiment's rows under one header, in experiment
	// order; for a replay workload, the first pass's.
	CSV string `json:"csv"`
	// Points counts the sweep points attempted (each pass's, for replay).
	Points int `json:"points"`
	// Failed counts points in Series.Failed, replay rows that differ from
	// the priming output, and replay cache misses.
	Failed int `json:"failed"`
	// Hits and Misses are the cache lookups of the repetition.
	Hits   int64 `json:"cache_hits"`
	Misses int64 `json:"cache_misses"`
	// Sim holds the simulated-side values read off the series.
	Sim map[string]float64 `json:"sim"`
}

// runOnce opens the cache in dir, runs every experiment of w through it,
// renders the CSV and saves the cache: the sequence a CLI run with -cache
// performs. Spans go to rec.
func (w workload) runOnce(seed uint64, dir string, rec *recorder) (csv string, series []*harness.Series, c *harness.Cache, err error) {
	rec.do("cache_open", func() { c, err = harness.OpenCache(dir) })
	if err != nil {
		return "", nil, nil, err
	}
	o := harness.Options{Seed: seed, Quick: w.quick, Cores: w.cores, Cache: c}
	for _, id := range w.exps {
		e := harness.ByID(id)
		if e == nil {
			return "", nil, nil, fmt.Errorf("unknown experiment %q", id)
		}
		var s *harness.Series
		rec.do("sweep:"+id, func() { s = e.Run(o) })
		series = append(series, s)
	}
	rec.do("csv", func() { csv = joinCSV(series) })
	rec.do("cache_save", func() { err = c.Save() })
	return csv, series, c, err
}

// prime is a replay workload's set-up: it computes every point into a
// fresh cache in dir and returns the output the replays must reproduce.
func (w workload) prime(seed uint64, dir string) (string, error) {
	csv, _, _, err := w.runOnce(seed, dir, newRecorder())
	return csv, err
}

// run is one repetition's timed phase. A cold workload runs once into the
// empty cache directory dir; a replay workload replays w.passes times from
// the cache its set-up primed in dir and checks every pass against ref,
// the priming output.
func (w workload) run(seed uint64, dir, ref string, rec *recorder) (repOutput, error) {
	passes := max(w.passes, 1)
	var out repOutput
	for i := 0; i < passes; i++ {
		csv, series, c, err := w.runOnce(seed, dir, rec)
		if err != nil {
			return out, err
		}
		for _, s := range series {
			out.Points += len(s.Points) + len(s.Failed)
			out.Failed += len(s.Failed)
		}
		out.Hits += c.Hits()
		out.Misses += c.Misses()
		if i == 0 {
			out.CSV, out.Sim = csv, simValues(series)
		}
		if w.passes > 0 {
			out.Failed += rowDiff(ref, csv)
		}
	}
	if w.passes > 0 {
		out.Failed += int(out.Misses)
	}
	return out, nil
}

// joinCSV renders the series as one CSV: the harness header once, then
// every series' rows in order.
func joinCSV(series []*harness.Series) string {
	var b strings.Builder
	for i, s := range series {
		csv := harness.CSV(s)
		if i > 0 {
			_, csv, _ = strings.Cut(csv, "\n")
		}
		b.WriteString(csv)
	}
	return b.String()
}

// freshDir returns an empty directory path under base for one repetition.
func freshDir(base string, rep int) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("rep-%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
