// Command mosbench runs the experiments that regenerate the tables and
// figures of "An Analysis of Linux Scalability to Many Cores" (OSDI 2010)
// against the simulated 48-core machine.
//
// Usage:
//
//	mosbench -list
//	mosbench -experiment fig4
//	mosbench -experiment fig5 -cores 1,8,48 -csv
//	mosbench -experiment fig11 -cores 1..48   (the paper's full x-axis)
//	mosbench -experiment ht -placement striped
//	mosbench -experiment fig4 -machine ring16   (a non-default host profile)
//	mosbench -experiment machines -quick        (stock-vs-PK across profiles)
//	mosbench -experiment degrade -fault "link:3-4@50%,drop:0.01"
//	mosbench -experiment fig5 -fault "core:7@off,dram:0@50%@t=1ms"
//	mosbench -experiment latload -quick
//	mosbench -experiment latload -arrival pareto -link "rtt=200us±100,loss=0.5%" -shed qlen=16
//	mosbench -all -quick
//	mosbench -all -cores 1..48 -cache ./sweepcache   (second run: all hits)
//	mosbench -all -cache ./sweepcache -verbose -cachestats stats.json
//	mosbench -all -cores 1..48 -cache ./sweepcache -shards 4
//	mosbench -benchjson BENCH_sweep.json
//	mosbench -benchjson /tmp/new.json -benchbaseline BENCH_sweep.json
//
// -benchjson runs the simulator microbenchmark suite and exits; apart
// from -benchbaseline (which gates the fresh numbers against a committed
// report) it ignores every other flag.
//
// -shards N splits the sweep's point grid across N worker processes
// sharing the -cache directory: each point's identity hashes to exactly
// one shard, the workers run concurrently, and the parent then replays
// the whole grid from the warm cache to print the merged result — which
// is bit-for-bit the single-process output. -shard-index I instead runs
// just shard I in this process (what the coordinator execs, and what a
// multi-machine CI matrix invokes directly).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/mosbench"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		exp        = flag.String("experiment", "", "experiment ID to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		cores      = flag.String("cores", "", "core counts: comma-separated values and lo..hi ranges, e.g. 1,8,48 or 1..48 (default: standard sweep)")
		quick      = flag.Bool("quick", false, "shrink budgets and sweep for a fast run")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables")
		seed       = flag.Uint64("seed", 1, "deterministic PRNG seed")
		serial     = flag.Bool("serial", false, "run sweep points serially instead of across GOMAXPROCS workers")
		place      = flag.String("placement", "local", "bulk-data placement policy for streaming workloads: local, striped, remote, or home:N")
		machine    = flag.String("machine", "", "machine profile to simulate (default: the paper's 48-core Tyan S4985); -list shows the registered profiles")
		faults     = flag.String("fault", "", "deterministic fault-injection spec, e.g. \"link:3-4@50%,drop:0.01\" (events: link:A-B@P%|down, dram:C@P%, core:N@off, drop:P, dup:P; optional @t=<dur> activation)")
		arrival    = flag.String("arrival", "", "open-loop arrival process for load experiments: poisson[:users=N] or pareto[:alpha=A][,users=N] (default: the experiment's choice)")
		link       = flag.String("link", "", "client link shaping for open-loop experiments, e.g. \"rtt=20ms±5,loss=0.1%,bw=10mbit\" (default: ideal link)")
		shed       = flag.String("shed", "", "open-loop admission policy: fifo (unbounded queue), qlen=N (bounded accept queue), or delay=100us (delay-bounded; the latload default)")
		cache      = flag.String("cache", "", "directory for the on-disk sweep-point cache: repeated grid runs are served without simulating")
		verbose    = flag.Bool("verbose", false, "report per-experiment cache hit/miss/invalidation counters after the run (requires -cache)")
		stats      = flag.String("cachestats", "", "write per-experiment cache hit/miss stats as JSON to this path after the run (requires -cache)")
		bench      = flag.String("benchjson", "", "write simulator microbenchmarks (engine dispatch, handoff, sweep wall-clock) as JSON to this path and exit, ignoring every other flag")
		benchBase  = flag.String("benchbaseline", "", "after -benchjson, compare the fresh numbers against the committed report at this path and exit 1 if any metric regressed by more than -benchfactor")
		benchFact  = flag.Float64("benchfactor", 2.0, "allowed growth factor per metric for -benchbaseline")
		shards     = flag.Int("shards", 1, "split the sweep across N worker processes sharing -cache <dir>, then print the merged result")
		shardIndex = flag.Int("shard-index", -1, "run only the shard with this 0-based index (requires -shards N and -cache <dir>); used by the -shards coordinator and by multi-machine CI")
	)
	flag.Parse()

	if *verbose && *cache == "" && *bench == "" {
		fatalUsage("-verbose reports cache counters, so it needs -cache <dir>; run with e.g. -cache ./sweepcache -verbose")
	}
	if *stats != "" && *cache == "" && *bench == "" {
		fatalUsage("-cachestats writes cache counters, so it needs -cache <dir>; run with e.g. -cache ./sweepcache -cachestats stats.json")
	}
	if *benchBase != "" && *bench == "" {
		fatalUsage("-benchbaseline gates a fresh -benchjson report, so it needs -benchjson <path>; run with e.g. -benchjson /tmp/new.json -benchbaseline BENCH_sweep.json")
	}
	if *bench != "" {
		results, err := mosbench.WriteBenchJSON(*bench)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			fmt.Printf("%-30s %14.1f ns/op  (%d ops)\n", r.Name, r.NsPerOp, r.Ops)
		}
		fmt.Printf("wrote %s\n", *bench)
		if *benchBase != "" {
			regs, err := mosbench.CompareBenchJSON(*benchBase, *bench, *benchFact)
			if err != nil {
				fatal(err)
			}
			if len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "mosbench: %d benchmark metric(s) regressed vs %s:\n", len(regs), *benchBase)
				for _, r := range regs {
					fmt.Fprintln(os.Stderr, " ", r)
				}
				os.Exit(1)
			}
			fmt.Printf("no metric regressed vs %s (allowed factor %.2f)\n", *benchBase, *benchFact)
		}
		return
	}

	// Validate the experiment ID and every run input before running
	// anything: a typo is a usage error (exit 2) naming its flag and what
	// is accepted, not a mid-run failure.
	if *exp != "" && !*list && !*all {
		if !knownExperiment(*exp) {
			fatalUsage(fmt.Sprintf("unknown experiment %q; registered experiments:\n%s", *exp, experimentList()))
		}
	}
	o := mosbench.Options{Quick: *quick, Seed: *seed, Serial: *serial, Placement: *place, Fault: *faults, Machine: *machine,
		Arrival: *arrival, Link: *link, Shed: *shed, Shards: *shards, ShardIndex: *shardIndex}
	if *shardIndex == -1 {
		// Not a worker: check the last index the coordinator would exec.
		o.ShardIndex = *shards - 1
	}
	if err := mosbench.Check(o); err != nil {
		var oe *mosbench.OptionError
		if !errors.As(err, &oe) {
			fatal(err)
		}
		name := "-" + strings.ToLower(oe.Field)
		if oe.Field == "ShardIndex" {
			name = "-shard-index"
		}
		fatalUsage(fmt.Sprintf("bad %s: %v", name, oe.Err))
	}
	if *shards > 1 && *cache == "" {
		fatalUsage("-shards splits the sweep across processes that share a point cache, so it needs -cache <dir>; run with e.g. -shards 2 -cache ./sweepcache")
	}
	if *cores != "" {
		cs, err := parseCores(*cores, machineCores(*machine))
		if err != nil {
			fatalUsage(fmt.Sprintf("bad -cores: %v", err))
		}
		o.Cores = cs
	}
	if *shardIndex == -1 {
		// Sweep the whole grid. The coordinator first runs every shard
		// worker to completion, so the cache handle opened below sees all
		// their stored points; this process then continues as the merge
		// pass and prints the full grid from the warm cache. A worker
		// keeps its shard: it computes only the owned points and stores
		// them in the shared cache.
		o.Shards, o.ShardIndex = 0, 0
		if *shards > 1 && !*list {
			runShardWorkers(*shards)
		}
	}
	if *cache != "" {
		c, err := mosbench.OpenCache(*cache)
		if err != nil {
			fatal(err)
		}
		o.Cache = c
	}

	var failed []string // "experiment: variant@cores: err" summaries
	runErr := func() error {
		switch {
		case *list:
			for _, e := range mosbench.Experiments() {
				fmt.Printf("%-8s %s\n         %s\n", e.ID, e.Title, e.Paper)
			}
			fmt.Printf("\nmachine profiles (-machine <name>):\n%s\n", machineList())
		case *all:
			for _, e := range mosbench.Experiments() {
				if err := runOne(e.ID, o, *csv, &failed); err != nil {
					return err
				}
			}
		case *exp != "":
			return runOne(*exp, o, *csv, &failed)
		default:
			flag.Usage()
			os.Exit(2)
		}
		return nil
	}()

	// Save the cache even when a run failed partway: the points computed
	// before the failure are exactly what the cache exists to preserve.
	if o.Cache != nil {
		if err := o.Cache.Save(); err != nil {
			if runErr == nil {
				runErr = err
			} else {
				fmt.Fprintln(os.Stderr, "mosbench: cache save:", err)
			}
		}
		cs := o.Cache.Stats()
		if *verbose {
			reportCacheStats(cs, o.Cache.Len(), *cache)
		}
		if *stats != "" {
			if err := o.Cache.WriteStatsJSON(*stats); err != nil {
				if runErr == nil {
					runErr = err
				} else {
					fmt.Fprintln(os.Stderr, "mosbench: cache stats:", err)
				}
			}
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
	// Every sweep point that crashed or wedged was isolated and skipped;
	// the run completed, but it is not the full artifact — say so and exit
	// nonzero.
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "mosbench: %d sweep point(s) failed:\n", len(failed))
		for _, f := range failed {
			fmt.Fprintln(os.Stderr, " ", f)
		}
		os.Exit(1)
	}
}

func runOne(id string, o mosbench.Options, csv bool, failed *[]string) error {
	s, err := mosbench.Run(id, o)
	if err != nil {
		return err
	}
	for _, f := range s.Failed {
		// First line only: panic reports carry a stack trace.
		msg, _, _ := strings.Cut(f.Err, "\n")
		*failed = append(*failed, fmt.Sprintf("%s: %s@%d: %s", id, f.Variant, f.Cores, msg))
	}
	if csv {
		fmt.Print(mosbench.CSV(s))
	} else {
		fmt.Println(mosbench.Table(s))
	}
	return nil
}

// runShardWorkers re-execs this binary once per shard with -shard-index
// appended, running every worker concurrently against the shared -cache
// directory. Worker stdout (a partial grid full of holes) is discarded;
// stderr streams through. A worker that fails is reported but not fatal:
// the merge pass recomputes whatever its cache section is missing, and
// genuinely failed sweep points resurface in the merge pass's own output.
func runShardWorkers(shards int) {
	self, err := os.Executable()
	if err != nil {
		fatal(fmt.Errorf("shard coordinator: %v", err))
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := append(append([]string{}, os.Args[1:]...), "-shard-index", strconv.Itoa(i))
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				errs[i] = fmt.Errorf("shard %d/%d: %v", i, shards, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, "mosbench:", err, "(missing points will be computed by the merge pass)")
		}
	}
}

// knownExperiment reports whether id is registered.
func knownExperiment(id string) bool {
	for _, e := range mosbench.Experiments() {
		if e.ID == id {
			return true
		}
	}
	return false
}

// experimentList renders the registered experiment IDs, one per line.
func experimentList() string {
	var b strings.Builder
	for _, e := range mosbench.Experiments() {
		fmt.Fprintf(&b, "  %-16s %s\n", e.ID, e.Title)
	}
	return strings.TrimRight(b.String(), "\n")
}

// machineCores returns the core count of the -machine profile ("" =
// the default profile), which Check has already found registered.
func machineCores(name string) int {
	for _, p := range mosbench.Machines() {
		if name == p.Name || (name == "" && p.Default) {
			return p.Cores
		}
	}
	return 0
}

// machineList renders the registered machine profiles, one per line.
func machineList() string {
	var b strings.Builder
	for _, p := range mosbench.Machines() {
		def := ""
		if p.Default {
			def = "  (default)"
		}
		fmt.Fprintf(&b, "  %-10s %2d chips, %3d cores%s\n", p.Name, p.Chips, p.Cores, def)
	}
	return strings.TrimRight(b.String(), "\n")
}

// parseCores accepts comma-separated core counts where each element is a
// single value or a lo..hi range: "1,8,48", "1..48", "1,4..8,48". The
// full-grid "1..48" form runs the paper's complete x-axis; maxCores is
// the selected machine profile's core count. The result is ascending and
// duplicate-free whatever the input order, so "48,1" and "8,8" sweep the
// same points, in the same order, as "1,48" and "8".
func parseCores(s string, maxCores int) ([]int, error) {
	want := make([]bool, maxCores+1)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi := part, part
		if i := strings.Index(part, ".."); i >= 0 {
			lo, hi = part[:i], part[i+2:]
		}
		a, err := parseCoreCount(lo, maxCores)
		if err != nil {
			return nil, err
		}
		b, err := parseCoreCount(hi, maxCores)
		if err != nil {
			return nil, err
		}
		if b < a {
			return nil, fmt.Errorf("bad core range %q: %d > %d", part, a, b)
		}
		for n := a; n <= b; n++ {
			want[n] = true
		}
	}
	var out []int
	for n, ok := range want {
		if ok {
			out = append(out, n)
		}
	}
	return out, nil
}

func parseCoreCount(s string, maxCores int) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad core count %q: %v", s, err)
	}
	if n < 1 || n > maxCores {
		return 0, fmt.Errorf("core count %d out of range [1,%d]", n, maxCores)
	}
	return n, nil
}

// reportCacheStats prints the totals plus one line per experiment that
// saw cache activity this run.
func reportCacheStats(cs mosbench.CacheStats, points int, dir string) {
	fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d invalidated, %d points stored (%s)\n",
		cs.Hits, cs.Misses, cs.Invalidated, points, dir)
	var ids []string
	for id, e := range cs.Experiments {
		if e.Hits+e.Misses+e.Invalidated > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := cs.Experiments[id]
		fmt.Fprintf(os.Stderr, "cache: %-16s %4d hits %4d misses %4d invalidated %4d points\n",
			id, e.Hits, e.Misses, e.Invalidated, e.Points)
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "mosbench:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mosbench:", err)
	os.Exit(1)
}
