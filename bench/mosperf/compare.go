package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json: the benchmark's command, workloads,
// and metric definitions with their regression bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readReports reads a file of -json reports, one per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// spread is a set of run medians summarized: their median, and the
// distance between their quartiles as a share of the median.
type spread struct {
	median, iqr float64
	n           int
}

func spreadOf(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	sp := spread{median: median(s), n: len(s)}
	if len(s) >= 2 && sp.median != 0 {
		q1, q3 := quartiles(s)
		sp.iqr = (q3 - q1) / sp.median
	}
	return sp
}

// compareFiles prints, per workload and end-to-end metric, the median and
// quartile spread of the run medians in set a and in set b, and flags a
// metric whose b median is worse than a's by more than its bound, or
// whose spread in either set exceeds its bound (setup_s's spread is not
// bounded). A set with an incorrect run is flagged too. It reports
// whether anything was flagged.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readReports(aPath)
	if err != nil {
		return false, err
	}
	b, err := readReports(bPath)
	if err != nil {
		return false, err
	}
	flagged := false
	fmt.Fprintf(w, "%-20s %-12s %12s %7s %3s %12s %7s %3s %8s %6s  %s\n",
		"workload", "metric", "a median", "a iqr", "n", "b median", "b iqr", "n", "change", "bound", "status")
	for _, wl := range bench.Workloads {
		ra, rb := byWorkload(a, wl.Name), byWorkload(b, wl.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		for _, set := range [][]report{ra, rb} {
			for _, r := range set {
				if !r.Correct {
					fmt.Fprintf(w, "%-20s seed %d: incorrect (%d of %d points failed)  FLAGGED\n", wl.Name, r.Seed, r.Failed, r.Attempted)
					flagged = true
				}
			}
		}
		for _, m := range bench.EndToEnd {
			sa, sb := spreadOf(medians(ra, m.Name)), spreadOf(medians(rb, m.Name))
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			change := 0.0
			if sa.median != 0 {
				change = (sb.median - sa.median) / sa.median
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			var status []string
			if sa.n > 0 && sb.n > 0 && worse > bound {
				status = append(status, "WORSE")
			}
			if m.Name != "setup_s" && (sa.iqr > bound || sb.iqr > bound) {
				status = append(status, "SPREAD")
			}
			st := "ok"
			if len(status) > 0 {
				flagged = true
				st = fmt.Sprint(status)
			}
			fmt.Fprintf(w, "%-20s %-12s %12.6g %6.1f%% %3d %12.6g %6.1f%% %3d %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, sa.median, 100*sa.iqr, sa.n, sb.median, 100*sb.iqr, sb.n, 100*change, 100*bound, st)
		}
	}
	return flagged, nil
}

func byWorkload(rs []report, name string) []report {
	var out []report
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// medians returns each run's median of metric.
func medians(rs []report, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if s, ok := r.EndToEnd[metric]; ok {
			out = append(out, s.Median)
		}
	}
	return out
}
