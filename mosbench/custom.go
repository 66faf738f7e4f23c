package mosbench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/topo"
)

// AppResult is the outcome of one custom application run.
type AppResult struct {
	// App names the workload.
	App string
	// Cores is the active core count.
	Cores int
	// PerCore is throughput per core (ops/sec/core).
	PerCore float64
	// Throughput is total ops/sec.
	Throughput float64
	// UserMicros and SysMicros are CPU microseconds per operation.
	UserMicros, SysMicros float64
	// KernelFraction is the share of busy CPU time spent in the kernel.
	KernelFraction float64
	// DRAMUtil is each chip's memory-controller busy fraction during the
	// run (nil for workloads that stream no bulk data).
	DRAMUtil []float64
	// LinkUtil is each HyperTransport link's busy fraction during the
	// run (nil for workloads that stream no bulk data).
	LinkUtil []float64
}

func toAppResult(r apps.Result) AppResult {
	return AppResult{
		App:            r.App,
		Cores:          r.Cores,
		PerCore:        r.PerCore(),
		Throughput:     r.Throughput(),
		UserMicros:     r.UserMicrosPerOp(),
		SysMicros:      r.SysMicrosPerOp(),
		KernelFraction: r.KernelFraction(),
		DRAMUtil:       r.DRAMUtil,
		LinkUtil:       r.LinkUtil,
	}
}

func kernelFor(pk bool, cores int, rr bool, seed uint64) (*kernel.Kernel, error) {
	host := topo.Default()
	if cores < 1 || cores > host.MaxCores() {
		return nil, fmt.Errorf("mosbench: cores %d out of range [1,%d]", cores, host.MaxCores())
	}
	cfg := kernel.Stock()
	if pk {
		cfg = kernel.PK()
	}
	m := host.WithCores(cores)
	if rr {
		m = host.WithCoresRR(cores)
	}
	if seed == 0 {
		seed = 1
	}
	return kernel.New(m, cfg, seed), nil
}

// EximConfig customizes a mail-server run.
type EximConfig struct {
	// Cores is the active core count (1..48).
	Cores int
	// PK selects the patched kernel; false runs stock.
	PK bool
	// SpoolDirs is the number of spool directories (paper: 62).
	SpoolDirs int
	// MessagesPerCore is the run length (0 = default).
	MessagesPerCore int
	// Seed is the deterministic PRNG seed (0 = default).
	Seed uint64
}

// RunExim runs the Exim workload with a custom configuration — e.g. to
// explore spool-directory contention, the paper's residual Exim bottleneck.
func RunExim(cfg EximConfig) (AppResult, error) {
	k, err := kernelFor(cfg.PK, cfg.Cores, false, cfg.Seed)
	if err != nil {
		return AppResult{}, err
	}
	opts := apps.DefaultEximOpts()
	if cfg.SpoolDirs > 0 {
		opts.SpoolDirs = cfg.SpoolDirs
	}
	if cfg.MessagesPerCore > 0 {
		opts.MessagesPerCore = cfg.MessagesPerCore
	}
	return toAppResult(apps.RunExim(k, opts)), nil
}

// ApacheConfig customizes a web-server run.
type ApacheConfig struct {
	Cores int
	// PK selects the patched kernel, which runs one Apache instance whose
	// listening socket every core shares; the stock kernel runs one
	// instance per core, as in the paper.
	PK bool
	// WithNIC includes the IXGBE receive envelope.
	WithNIC bool
	// RequestsPerCore is the run length (0 = default).
	RequestsPerCore int
	Seed            uint64
}

// RunApache runs the Apache workload with a custom configuration.
func RunApache(cfg ApacheConfig) (AppResult, error) {
	k, err := kernelFor(cfg.PK, cfg.Cores, false, cfg.Seed)
	if err != nil {
		return AppResult{}, err
	}
	opts := apps.DefaultApacheOpts()
	opts.UseNIC = cfg.WithNIC
	if cfg.RequestsPerCore > 0 {
		opts.RequestsPerCore = cfg.RequestsPerCore
	}
	return toAppResult(apps.RunApache(k, opts)), nil
}

// MetisConfig customizes a MapReduce run.
type MetisConfig struct {
	Cores int
	PK    bool
	// SuperPages maps temporary tables with 2 MB pages.
	SuperPages bool
	// InputBytes is the input size (0 = default).
	InputBytes int64
	// Placement homes the reduce phase's table stream: "local"
	// (default), "striped", "remote", or "home:N".
	Placement string
	Seed      uint64
}

// RunMetis runs the Metis inverted-index workload.
func RunMetis(cfg MetisConfig) (AppResult, error) {
	k, err := kernelFor(cfg.PK, cfg.Cores, true, cfg.Seed)
	if err != nil {
		return AppResult{}, err
	}
	opts := apps.DefaultMetisOpts()
	opts.SuperPages = cfg.SuperPages
	if cfg.InputBytes > 0 {
		opts.InputBytes = cfg.InputBytes
	}
	pl, err := mem.ParsePlacementFor(topo.Default(), cfg.Placement)
	if err != nil {
		return AppResult{}, err
	}
	opts.Placement = pl
	return toAppResult(apps.RunMetis(k, opts)), nil
}
