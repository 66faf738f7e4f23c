package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

//mosvet:allowfile detlint the perf suite's whole purpose is measuring real elapsed time; nothing here feeds simulated results

// BenchResult is one machine-readable performance measurement.
type BenchResult struct {
	// Name identifies the measurement (stable across runs, so results can
	// be tracked as a trajectory).
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// Ops is how many operations the measurement averaged over.
	Ops int64 `json:"ops"`
}

// BenchReport is the file cmd/mosbench -benchjson writes.
type BenchReport struct {
	// Schema versions the report format.
	Schema string `json:"schema"`
	// Results holds every measurement.
	Results []BenchResult `json:"results"`
}

// benchReportSchema names the report format; bump when fields change.
const benchReportSchema = "mosbench-bench/1"

// timeOp measures fn once and averages its wall-clock over ops.
func timeOp(name string, ops int64, fn func()) BenchResult {
	start := time.Now()
	fn()
	return BenchResult{
		Name:    name,
		NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(ops),
		Ops:     ops,
	}
}

// RunPerfSuite measures the simulator's hot paths with wall-clock timers
// and returns machine-readable results: engine dispatch (the non-yielding
// Advance fast path), the proc-to-proc handoff, spawn/run cycles on fresh
// vs reused engines, quick-sweep wall-clock cold vs warm-cache, the
// open-loop latload quick sweep, and the cold full-grid fig4 sweep whole
// and as one shard of two. The committed BENCH_sweep.json is the
// baseline; CI reruns the suite and fails on >2x regression of any metric
// (CompareBenchReports).
func RunPerfSuite() []BenchResult {
	var out []BenchResult

	// Engine dispatch: a lone proc advancing never yields.
	{
		const n = 2_000_000
		e := sim.NewEngine(topo.New(1), 1)
		defer e.Close()
		e.Spawn(0, "runner", 0, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				//mosvet:allow fprintcheck host-speed microbenchmark step; no simulated result is cached
				p.Advance(10)
			}
		})
		out = append(out, timeOp("engine_advance_fast_path", n, e.Run))
	}

	// Handoff: two procs with interleaved times force a handoff on every
	// Advance. Each proc resumes the one that resumed it, so a handoff is
	// one coroutine switch, straight from one proc to the other.
	{
		const n = 500_000
		e := sim.NewEngine(topo.New(2), 1)
		defer e.Close()
		body := func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				//mosvet:allow fprintcheck host-speed microbenchmark step; no simulated result is cached
				p.Advance(10)
			}
		}
		e.Spawn(0, "a", 0, body)
		e.Spawn(1, "b", 5, body)
		out = append(out, timeOp("engine_handoff", 2*n, e.Run))
	}

	// Spawn/run cycles: fresh engine per cycle vs one reused pooled engine
	// whose parked coroutines take each new body. The reused number is a
	// sweep worker's steady-state per-point overhead on its engine slot.
	{
		const cycles, procs = 200, 48
		m := topo.New(procs)
		//mosvet:allow fprintcheck host-speed microbenchmark step; no simulated result is cached
		body := func(p *sim.Proc) { p.Advance(10) }
		out = append(out, timeOp("spawn_run_fresh_engine", cycles, func() {
			for i := 0; i < cycles; i++ {
				e := sim.NewEngine(m, 1)
				for c := 0; c < procs; c++ {
					e.Spawn(c, "p", 0, body)
				}
				e.Run()
			}
		}))
		ep := sim.NewPooledEngine(m, 1)
		defer ep.Close()
		out = append(out, timeOp("spawn_run_reused_parked", cycles, func() {
			for i := 0; i < cycles; i++ {
				ep.Reset(1)
				for c := 0; c < procs; c++ {
					ep.Spawn(c, "p", 0, body)
				}
				ep.Run()
			}
		}))
	}

	// Quick sweep wall-clock: one fig5 quick grid on pooled engines, then the
	// same grid served from a warm cache (zero simulation).
	{
		fig5 := ByID("fig5")
		out = append(out, timeOp("quick_sweep_fig5", 1, func() {
			fig5.Run(Options{Quick: true, Seed: 1})
		}))
		if dir, err := os.MkdirTemp("", "mosbench-bench-cache"); err == nil {
			defer os.RemoveAll(dir)
			if c, err := OpenCache(dir); err == nil {
				o := Options{Quick: true, Seed: 1, Cache: c}
				fig5.Run(o) // prime
				out = append(out, timeOp("quick_sweep_fig5_warm_cache", 1, func() {
					fig5.Run(o)
				}))
			}
		}
	}

	// Open-loop tail-latency sweep: the latload quick grid simulates a
	// calibration run plus a sustained-overload run per point, so its
	// wall-clock tracks the open-loop client and shaper hot paths (cohort
	// scheduling, histogram recording, retransmission bookkeeping) that no
	// closed-loop sweep exercises.
	{
		latload := ByID("latload")
		out = append(out, timeOp("quick_sweep_latload", 1, func() {
			latload.Run(Options{Quick: true, Seed: 1})
		}))
	}

	// Cold full-grid sweep: fig4 across the paper's entire 1..48 x-axis
	// with no cache, then the same grid restricted to shard 0 of 2 — the
	// per-process cost a sharded CI run pays.
	{
		fig4 := ByID("fig4")
		grid := make([]int, 48)
		for i := range grid {
			grid[i] = i + 1
		}
		out = append(out, timeOp("full_grid_fig4_cold", 1, func() {
			fig4.Run(Options{Quick: true, Seed: 1, Cores: grid})
		}))
		out = append(out, timeOp("full_grid_fig4_cold_shard0of2", 1, func() {
			fig4.Run(Options{Quick: true, Seed: 1, Cores: grid, Shards: 2, ShardIndex: 0})
		}))
	}

	return out
}

// ReadBenchReport loads a -benchjson report (see decodeBenchReport).
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: bench report read: %w", err)
	}
	r, err := decodeBenchReport(data)
	if err != nil {
		return nil, fmt.Errorf("harness: bench report %s: %w", path, err)
	}
	return r, nil
}

// decodeBenchReport parses a -benchjson report, rejecting unknown schemas
// and repeated metric names: CompareBenchReports keys metrics by name, so
// a name listed twice would gate one of its values against the other.
func decodeBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Schema != benchReportSchema {
		return nil, fmt.Errorf("schema %q, want %q", r.Schema, benchReportSchema)
	}
	seen := make(map[string]bool, len(r.Results))
	for _, res := range r.Results {
		if seen[res.Name] {
			return nil, fmt.Errorf("metric %q listed more than once", res.Name)
		}
		seen[res.Name] = true
	}
	return &r, nil
}

// CompareBenchReports checks current against baseline: any metric present
// in both whose ns/op grew by more than factor is reported as a
// regression, one human-readable line each. A baseline metric missing
// from the current report is also reported — a renamed or deleted
// benchmark would otherwise silently vanish from the gate, which is
// exactly how a regression hides; retiring a metric legitimately means
// updating the committed baseline in the same change. Metrics new in the
// current report are ignored (the suite grows over time; they enter the
// gate when the baseline is refreshed).
func CompareBenchReports(baseline, current *BenchReport, factor float64) []string {
	cur := make(map[string]bool, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = true
	}
	base := make(map[string]float64, len(baseline.Results))
	var regressions []string
	for _, r := range baseline.Results {
		base[r.Name] = r.NsPerOp
		if !cur[r.Name] {
			regressions = append(regressions, fmt.Sprintf(
				"%s: present in baseline but missing from current report (rename/delete must update the baseline)",
				r.Name))
		}
	}
	for _, r := range current.Results {
		b, ok := base[r.Name]
		if !ok || b <= 0 {
			continue
		}
		if r.NsPerOp > b*factor {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f ns/op (%.2fx > %.2fx allowed)",
				r.Name, r.NsPerOp, b, r.NsPerOp/b, factor))
		}
	}
	return regressions
}

// WriteBenchJSON runs the perf suite and writes the report to path.
func WriteBenchJSON(path string) ([]BenchResult, error) {
	results := RunPerfSuite()
	data, err := json.MarshalIndent(BenchReport{Schema: benchReportSchema, Results: results}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("harness: bench report encode: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("harness: bench report write: %w", err)
	}
	return results, nil
}
