package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	w           workload
	seed        uint64
	seconds     float64
	minReps     int
	trace       bool
	out         string
	goldenDir   string
	jsonPath    string
	writeGolden bool
}

const (
	// repCap stops starting untraced repetitions once the next one could
	// end past it, whatever -seconds asks for, so that a run with its
	// traced repetition ends within childTimeout.
	repCap = 140 * time.Second
	// childTimeout bounds the whole run: a child still running then is
	// killed and the run fails.
	childTimeout = 170 * time.Second
	// minSetupSamples is how many set-ups a run times for setup_s: its
	// reps' plus those of set-up-only children. Spawn-to-ready time has a
	// heavy tail on a busy host (mostly ~2 ms, now and then 5-10 ms), so
	// its median needs more samples than a run has reps.
	minSetupSamples = 21
	// maxExtraSetup bounds the time spent in set-up-only children:
	// cache-replay's set-up primes a cache for ~1.5 s, so it gets one.
	maxExtraSetup = time.Second
)

// rep is one repetition as the parent records it.
type rep struct {
	childResult
	// StartS is when the child was started, in seconds from the run's
	// start; SetupS is from then until it reported ready.
	StartS float64 `json:"start_s"`
	SetupS float64 `json:"setup_s"`
	// PeakRSSMB is the child's maximum resident set size.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// GoldenFailed counts the CSV rows that differ from or are missing
	// from the reference: the golden, or the first repetition's output
	// for a seed without one.
	GoldenFailed int  `json:"golden_failed"`
	Traced       bool `json:"traced"`
}

// pointsFailed is the repetition's points_failed: failed sweep points,
// replay mismatches and misses, and rows that differ from the reference.
func (r rep) pointsFailed() int { return r.Failed + r.GoldenFailed }

// report is a run's full record, appended to -json files and read by
// -compare.
type report struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Revision   string  `json:"revision"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	// EndToEnd summarizes each end-to-end metric over the untraced
	// repetitions.
	EndToEnd map[string]stat `json:"end_to_end"`
	// PerLayer holds the traced run's per-layer metrics.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	RepList  []rep              `json:"rep_list"`
}

// runBenchmark runs cfg's repetitions, checks their output, and prints
// the metrics with the result line last.
func runBenchmark(cfg config, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()

	start := time.Now()
	var reps []rep
	timed, longest := 0.0, time.Duration(0)
	for len(reps) < cfg.minReps || timed < cfg.seconds {
		if len(reps) >= cfg.minReps && time.Since(start)+longest > repCap {
			break
		}
		t := time.Now()
		r, err := spawnRep(ctx, self, cfg, base, len(reps), "", false, start)
		if err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
		reps = append(reps, r)
		timed += r.WallS
	}
	var extraSetups []float64
	for spent := 0.0; len(reps)+len(extraSetups) < minSetupSamples && spent < maxExtraSetup.Seconds(); {
		r, err := spawnRep(ctx, self, cfg, base, len(reps), "", true, start)
		if err != nil {
			return err
		}
		extraSetups = append(extraSetups, r.SetupS)
		spent += r.SetupS
	}
	traceDir := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed))
	if cfg.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		r, err := spawnRep(ctx, self, cfg, base, len(reps), filepath.Join(traceDir, "cpu.pprof"), false, start)
		if err != nil {
			return err
		}
		r.Traced = true
		reps = append(reps, r)
	}
	if cfg.writeGolden {
		return writeGolden(cfg, reps[0])
	}

	want, ok, err := readGolden(cfg.goldenDir, cfg.w.name, cfg.seed)
	if err != nil {
		return err
	}
	if !ok {
		want = reps[0].CSV
	}
	for i := range reps {
		reps[i].GoldenFailed = rowDiff(want, reps[i].CSV)
		reps[i].CSV = "" // checked; dropping it keeps -json reports small
	}
	rp := newReport(cfg, reps, extraSetups)
	if cfg.trace {
		if rp.PerLayer, err = tracedMetrics(traceDir, reps); err != nil {
			return err
		}
	}
	printReport(stdout, rp, cfg.trace)
	if cfg.jsonPath != "" {
		return appendJSON(cfg.jsonPath, rp)
	}
	return nil
}

// spawnRep runs repetition i in a fresh child process with GOMAXPROCS set
// to the host's CPU count, profiling its timed phase to profile when set.
// A setupOnly child stops once set-up is done; only SetupS is recorded.
func spawnRep(ctx context.Context, self string, cfg config, base string, i int, profile string, setupOnly bool, runStart time.Time) (rep, error) {
	dir, err := freshDir(base, i)
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-child", "-workload", cfg.w.name, "-seed", fmt.Sprint(cfg.seed), "-dir", dir}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return rep{}, err
	}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return rep{}, fmt.Errorf("rep %d: %w", i, err)
	}
	br := bufio.NewReader(pipe)
	line, rerr := br.ReadString('\n')
	ready := time.Now()
	var res childResult
	if rerr == nil && strings.TrimSpace(line) == readyLine {
		if !setupOnly {
			rerr = json.NewDecoder(br).Decode(&res)
		}
	} else if rerr == nil {
		rerr = fmt.Errorf("unexpected handshake %q", line)
	}
	if err := cmd.Wait(); err != nil {
		return rep{}, fmt.Errorf("rep %d: %w", i, err)
	}
	if rerr != nil {
		return rep{}, fmt.Errorf("rep %d: reading its report: %w", i, rerr)
	}
	return rep{
		childResult: res,
		StartS:      begin.Sub(runStart).Seconds(),
		SetupS:      ready.Sub(begin).Seconds(),
		PeakRSSMB:   float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) * 1024 / 1e6,
	}, nil
}

// newReport summarizes the repetitions: end-to-end metrics over the
// untraced ones (setup_s also over the set-up-only children's
// extraSetups), attempted and failed points over all of them.
func newReport(cfg config, reps []rep, extraSetups []float64) report {
	rp := report{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.NumCPU(), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Revision: revision(),
		EndToEnd: map[string]stat{}, RepList: reps,
	}
	values := map[string][]float64{}
	for _, r := range reps {
		rp.Attempted += r.Points
		rp.Failed += r.pointsFailed()
		if r.Traced {
			continue
		}
		rp.Reps++
		for name, v := range endToEndValues(r) {
			values[name] = append(values[name], v)
		}
	}
	values["setup_s"] = append(values["setup_s"], extraSetups...)
	for _, d := range endToEnd {
		rp.EndToEnd[d.name] = summarize(values[d.name], d.unit)
	}
	rp.Correct = rp.Failed == 0 && rp.Attempted > 0
	return rp
}

// endToEndValues is one repetition's end-to-end metrics.
func endToEndValues(r rep) map[string]float64 {
	return map[string]float64{
		"wall_s":      r.WallS,
		"cpu_s":       r.CPUS,
		"setup_s":     r.SetupS,
		"peak_rss_mb": r.PeakRSSMB,
		"alloc_mb":    float64(r.AllocBytes) / 1e6,
		"allocs":      float64(r.Allocs),
	}
}

// printReport writes one line per metric, then the result line: the
// end-to-end medians, or with traced the per-layer metrics.
func printReport(w io.Writer, rp report, traced bool) {
	fmt.Fprintf(w, "mosperf %s seed=%d: %d reps, GOMAXPROCS=%d, %s, %s, rev %s\n",
		rp.Workload, rp.Seed, rp.Reps, rp.GOMAXPROCS, rp.GoVersion, rp.CPUModel, rp.Revision)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, d := range endToEnd {
		s := rp.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (median of %d, max %.6g)\n", d.name, s.Median, d.unit, s.N, s.Max)
		if !traced {
			metrics[d.name] = valueUnit{s.Median, d.unit}
		}
	}
	if traced {
		for _, d := range perLayer() {
			v := rp.PerLayer[d.name]
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
			metrics[d.name] = valueUnit{v, d.unit}
		}
	}
	fmt.Fprintf(w, "  points: %d attempted, %d failed\n", rp.Attempted, rp.Failed)
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rp.Correct, rp.Attempted, rp.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// appendJSON appends rp to path as one line.
func appendJSON(path string, rp report) error {
	data, err := json.Marshal(rp)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeGolden stores r's CSV as the golden for cfg's workload and seed.
func writeGolden(cfg config, r rep) error {
	if r.Failed > 0 {
		return fmt.Errorf("not writing a golden: %d points failed", r.Failed)
	}
	if err := os.MkdirAll(cfg.goldenDir, 0o755); err != nil {
		return err
	}
	path := goldenPath(cfg.goldenDir, cfg.w.name, cfg.seed)
	if err := os.WriteFile(path, []byte(r.CSV), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points)\n", path, r.Points)
	return nil
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision returns the VCS revision the binary was built from, with
// "+dirty" for a modified tree, or "unknown" outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
