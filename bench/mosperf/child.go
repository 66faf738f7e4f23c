package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// readyLine is the line a child writes to standard output when its set-up
// is done and its timed phase starts; its report follows as one JSON line.
const readyLine = "ready"

// childResult is one repetition as its own process measures it.
type childResult struct {
	repOutput
	// WallS and CPUS are the timed phase's wall clock and the process's
	// user+sys CPU over it.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// AllocBytes and Allocs are runtime.MemStats deltas over the timed
	// phase (TotalAlloc and Mallocs).
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// Spans are the first maxSpans spans; SpanTotalUS sums all of them by
	// name.
	Spans       []span             `json:"spans"`
	SpanTotalUS map[string]float64 `json:"span_total_us"`
	// Probes holds the layer probes; only the traced repetition runs them.
	Probes map[string]float64 `json:"probes,omitempty"`
}

// childMain runs one repetition: set-up (priming, for a replay workload),
// then the timed phase, profiled when profilePath is set, then the probes
// when profiled. It writes readyLine between set-up and the timed phase
// and its childResult at the end. With setupOnly it exits after readyLine:
// the parent is only sampling set-up time.
func childMain(w workload, seed uint64, dir, profilePath string, setupOnly bool) error {
	if dir == "" {
		return fmt.Errorf("-child needs -dir")
	}
	var ref string
	if w.passes > 0 {
		var err error
		if ref, err = w.prime(seed, dir); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	// Collect set-up's garbage now, so the timed phase does not pay for it.
	runtime.GC()
	fmt.Println(readyLine)
	if setupOnly {
		return nil
	}

	var prof *os.File
	if profilePath != "" {
		var err error
		if prof, err = os.Create(profilePath); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	rec := newRecorder()
	out, err := w.run(seed, dir, ref, rec)
	wall := time.Since(rec.t0)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("cpu profile: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	res := childResult{
		repOutput:   out,
		WallS:       wall.Seconds(),
		CPUS:        cpu.Seconds(),
		AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		Allocs:      m1.Mallocs - m0.Mallocs,
		Spans:       rec.spans,
		SpanTotalUS: rec.totalUS,
	}
	if profilePath != "" {
		runtime.GC()
		res.Probes = runProbes()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// processCPU returns the process's user+sys CPU time so far, all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
