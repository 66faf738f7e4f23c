package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode checks BENCHMARK.json against the code in
// both directions: the same workloads, and the same metrics with the same
// units and directions as mosperf emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []string
	for _, w := range workloads {
		wantWorkloads = append(wantWorkloads, w.name)
	}
	var gotWorkloads []string
	for _, w := range b.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one non-empty line", w.Name)
		}
	}
	if strings.Join(gotWorkloads, ",") != strings.Join(wantWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", gotWorkloads, wantWorkloads)
	}
	if len(b.Command) == 0 || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) == 0 {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}

	seen := map[string]bool{}
	check := func(kind string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code emits %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, code %v", kind, i, got[i], want[i])
			}
		}
		for _, d := range got {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if d.unit == "" || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s: %s needs a unit and a direction", kind, d.name)
			}
		}
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	check("end_to_end", e2e, endToEnd)
	var pl []metricDef
	for _, m := range b.PerLayer {
		pl = append(pl, metricDef{m.Name, m.Unit, m.Better})
	}
	check("per_layer", pl, perLayer())

	// What the code emits is what it declares.
	reps := []rep{{}, {Traced: true}}
	reps[0].WallS, reps[1].WallS = 1, 1
	emitted := [][2]map[string]float64{
		{endToEndValues(reps[0]), defsSet(endToEnd)},
		{perLayerValues(attribution{}, reps), defsSet(perLayer())},
	}
	for _, e := range emitted {
		for k := range e[0] {
			if _, ok := e[1][k]; !ok {
				t.Errorf("emitted metric %s is not declared", k)
			}
		}
		for k := range e[1] {
			if _, ok := e[0][k]; !ok {
				t.Errorf("declared metric %s is not emitted", k)
			}
		}
	}
}

func defsSet(defs []metricDef) map[string]float64 {
	m := map[string]float64{}
	for _, d := range defs {
		m[d.name] = 0
	}
	return m
}

// TestCacheReplaySmoke is cache-replay in miniature: prime fig5's quick
// grid at cores 1 and 8, then replay it twice from the cache.
func TestCacheReplaySmoke(t *testing.T) {
	w := workload{name: "smoke", exps: []string{"fig5"}, quick: true, cores: []int{1, 8}, passes: 2}
	dir := t.TempDir()
	ref, err := w.prime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "points.json")); err != nil {
		t.Fatalf("priming left no cache: %v", err)
	}
	out, err := w.run(1, dir, ref, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if out.Misses != 0 || out.Failed != 0 || out.Hits != int64(out.Points) || out.Points != 2*4 {
		t.Errorf("replay: %d points, %d hits, %d misses, %d failed; want 8, 8, 0, 0",
			out.Points, out.Hits, out.Misses, out.Failed)
	}
	if out.CSV != ref {
		t.Errorf("replay output differs from priming output:\n%s\nvs\n%s", out.CSV, ref)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}
