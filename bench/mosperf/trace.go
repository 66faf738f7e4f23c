package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// tracedMetrics computes the per-layer metrics from the traced (last)
// repetition and writes the traced run's artifacts next to its cpu.pprof:
// trace.json, the spans of every repetition as Chrome trace events, and
// layers.json, the CPU attribution with the metrics.
func tracedMetrics(dir string, reps []rep) (map[string]float64, error) {
	traced := reps[len(reps)-1]
	data, err := os.ReadFile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	p, err := parseCPUProfile(data)
	if err != nil {
		return nil, err
	}
	a := attribute(p)
	v := perLayerValues(a, reps)

	if err := writeJSON(filepath.Join(dir, "trace.json"), chromeTrace(reps)); err != nil {
		return nil, err
	}
	pct := func(m map[string]int64) map[string]float64 {
		out := map[string]float64{}
		for k, ns := range m {
			out[k] = 100 * float64(ns) / float64(max(a.total, 1))
		}
		return out
	}
	layersDoc := map[string]any{
		"samples":     len(p.samples),
		"total_cpu_s": float64(a.total) / 1e9,
		"self_pct":    pct(a.self),
		"incl_pct":    pct(a.incl),
		"handoff_pct": 100 * float64(a.handoff) / float64(max(a.total, 1)),
		"metrics":     v,
		"wall_s":      traced.WallS,
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), layersDoc); err != nil {
		return nil, err
	}
	return v, nil
}

// perLayerValues assembles every per-layer metric: the profile's
// attribution, and the traced (last) repetition's spans, cache counters,
// probes and simulated-side values, with its wall time against the median
// of the untraced ones as the tracing overhead.
func perLayerValues(a attribution, reps []rep) map[string]float64 {
	traced := reps[len(reps)-1]
	var walls []float64
	for _, r := range reps[:len(reps)-1] {
		walls = append(walls, r.WallS)
	}
	sort.Float64s(walls)
	v := layerValues(a)
	for k, x := range spanValues(traced.SpanTotalUS, traced.Hits, traced.Misses) {
		v[k] = x
	}
	v["trace.overhead_pct"] = (traced.WallS/median(walls) - 1) * 100
	for _, pr := range probes {
		v[pr.name] = traced.Probes[pr.name]
	}
	for _, d := range simMetrics {
		v[d.name] = traced.Sim[d.name]
	}
	return v
}

// traceEvent is one Chrome trace-event record (the JSON format
// chrome://tracing and Perfetto read).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace lays the repetitions out on one track each: the set-up
// span (spawn to ready, measured by the parent), the timed phase, and the
// child's spans around the harness calls, placed from its ready time.
func chromeTrace(reps []rep) map[string]any {
	var evs []traceEvent
	for i, r := range reps {
		label := fmt.Sprintf("rep %d", i)
		if r.Traced {
			label += " (traced)"
		}
		start := r.StartS * 1e6
		timed := start + r.SetupS*1e6
		evs = append(evs,
			traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i, Args: map[string]any{"name": label}},
			traceEvent{Name: "setup", Ph: "X", TS: start, Dur: r.SetupS * 1e6, PID: 1, TID: i},
			traceEvent{Name: "timed", Ph: "X", TS: timed, Dur: r.WallS * 1e6, PID: 1, TID: i,
				Args: map[string]any{"cpu_s": r.CPUS, "points": r.Points}})
		for _, s := range r.Spans {
			evs = append(evs, traceEvent{Name: s.Name, Ph: "X", TS: timed + s.StartUS, Dur: s.DurUS, PID: 1, TID: i})
		}
	}
	return map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
