// Command sloppybench measures the real (non-simulated) sloppy counter
// against a single shared atomic on the machine it runs on — the paper's
// §4.3 comparison as a takeaway artifact. With -sim it instead sweeps the
// same comparison on the simulated 48-core machine (the "scount"
// experiment), with the sweep's core counts running concurrently.
//
// Usage:
//
//	sloppybench [-goroutines N] [-iters N] [-shards N] [-threshold N]
//	sloppybench -sim [-quick] [-serial] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/mosbench"
	"repro/sloppy"
)

func main() {
	var (
		goroutines = flag.Int("goroutines", runtime.GOMAXPROCS(0), "concurrent workers")
		iters      = flag.Int("iters", 500_000, "acquire/release pairs per worker")
		shards     = flag.Int("shards", 16, "sloppy counter shards")
		threshold  = flag.Int64("threshold", sloppy.DefaultThreshold, "per-shard spare cap")
		sim        = flag.Bool("sim", false, "run the simulated core-count sweep instead of the real-machine churn")
		quick      = flag.Bool("quick", false, "with -sim: shrink budgets and the sweep")
		serial     = flag.Bool("serial", false, "with -sim: run sweep points serially")
		seed       = flag.Uint64("seed", 1, "with -sim: deterministic PRNG seed")
	)
	flag.Parse()

	if *sim {
		s, err := mosbench.Run("scount", mosbench.Options{Quick: *quick, Serial: *serial, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sloppybench:", err)
			os.Exit(1)
		}
		fmt.Println(mosbench.Table(s))
		return
	}

	churn := func(acquire, release func()) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < *goroutines; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < *iters; i++ {
					acquire()
					release()
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	ops := float64(*goroutines) * float64(*iters)

	var shared atomic.Int64
	sharedTime := churn(func() { shared.Add(1) }, func() { shared.Add(-1) })

	c := sloppy.NewWithShards(*shards, *threshold)
	sloppyTime := churn(func() { c.Acquire(1) }, func() { c.Release(1) })
	if c.Value() != 0 {
		panic("sloppybench: leaked references")
	}

	fmt.Printf("workers=%d iters=%d shards=%d threshold=%d\n",
		*goroutines, *iters, *shards, *threshold)
	fmt.Printf("shared atomic: %10.1f ns/op  (%v total)\n",
		float64(sharedTime.Nanoseconds())/ops, sharedTime)
	fmt.Printf("sloppy:        %10.1f ns/op  (%v total)\n",
		float64(sloppyTime.Nanoseconds())/ops, sloppyTime)
	fmt.Printf("speedup:       %10.1fx\n", float64(sharedTime)/float64(sloppyTime))
}
