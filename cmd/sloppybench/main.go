// Command sloppybench measures the real (non-simulated) sloppy counter
// against a single shared atomic on the machine it runs on — the paper's
// §4.3 comparison as a takeaway artifact. The same comparison on the
// simulated 48-core machine is `mosbench -experiment scount`.
//
// Usage:
//
//	sloppybench [-goroutines N] [-iters N] [-shards N] [-threshold N]
package main

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/sloppy"
)

func main() {
	var (
		goroutines = flag.Int("goroutines", runtime.GOMAXPROCS(0), "concurrent workers")
		iters      = flag.Int("iters", 500_000, "acquire/release pairs per worker")
		shards     = flag.Int("shards", 16, "sloppy counter shards")
		threshold  = flag.Int64("threshold", sloppy.DefaultThreshold, "per-shard spare cap")
	)
	flag.Parse()

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
