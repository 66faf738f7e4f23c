// Command mosperf is the simulator's host-performance benchmark. It runs
// one of four fixed workloads through the same public call the CLI uses,
// harness.ByID(id).Run, one repetition per fresh child process, checks
// every output row against committed goldens, and prints end-to-end
// metrics (medians over the repetitions) or, with -trace 1, per-layer
// metrics from one extra CPU-profiled repetition plus layer probes.
//
// Run it from the repository root:
//
//	sh bench/run.sh -workload exim-grid -seed 1 -seconds 15 -trace 0
//
// Repetitions continue until -seconds of timed work and at least -reps
// repetitions have run. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Other modes:
//
//	mosperf -workload W -seed N -write-golden   # write bench/golden/W.seedN.csv
//	mosperf -compare a.jsonl b.jsonl            # two sets of -json reports
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run parses flags and dispatches to a mode; it returns the exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("mosperf", flag.ContinueOnError)
	var (
		name        = fs.String("workload", "", "workload to run: exim-grid, memcached-overload, stream-grid, cache-replay")
		seed        = fs.Uint64("seed", 1, "input seed (seeds 1 and 2 are checked against goldens)")
		seconds     = fs.Float64("seconds", 15, "timed work to measure, in seconds; repetitions run until it is reached")
		reps        = fs.Int("reps", 3, "minimum number of untraced repetitions")
		trace       = fs.String("trace", "0", "1: add a CPU-profiled repetition and probes, and report per-layer metrics")
		out         = fs.String("out", ".bench_build/mosperf", "directory for scratch caches and traced-run artifacts")
		golden      = fs.String("golden", "bench/golden", "directory of golden CSVs")
		jsonPath    = fs.String("json", "", "append this run's full report, one JSON line, to this file")
		writeGolden = fs.Bool("write-golden", false, "run one repetition and write its CSV as the golden for -seed")
		compare     = fs.Bool("compare", false, "compare two files of -json reports given as arguments")
		benchmark   = fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
		child       = fs.Bool("child", false, "internal: run one repetition in this process")
		dir         = fs.String("dir", "", "internal: the repetition's cache directory")
		profile     = fs.String("profile", "", "internal: write a CPU profile of the timed phase here")
		setupOnly   = fs.Bool("setup-only", false, "internal: exit once set-up is done")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mosperf: -compare needs two report files")
			return 2
		}
		flagged, err := compareFiles(os.Stdout, *benchmark, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mosperf:", err)
			return 1
		}
		if flagged {
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosperf:", err)
		return 2
	}
	if *child {
		if err := childMain(w, *seed, *dir, *profile, *setupOnly); err != nil {
			fmt.Fprintln(os.Stderr, "mosperf child:", err)
			return 1
		}
		return 0
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mosperf: -trace %q: want 0 or 1\n", *trace)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, minReps: max(*reps, 1), trace: traced,
		out: *out, goldenDir: *golden, jsonPath: *jsonPath, writeGolden: *writeGolden}
	if cfg.writeGolden {
		cfg.seconds, cfg.minReps, cfg.trace = 0, 1, false
	}
	if err := runBenchmark(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mosperf:", err)
		return 1
	}
	return 0
}
