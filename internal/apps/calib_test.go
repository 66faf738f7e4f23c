package apps

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/topo"
)

// TestCalibrationProbe prints per-core throughput curves for manual
// calibration. Run with: go test ./internal/apps -run Calibration -v
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	coresList := []int{1, 2, 4, 8, 16, 24, 36, 48}

	fmt.Println("== Exim (msg/s/core, user us, sys us) ==")
	for _, variant := range []string{"stock", "pk"} {
		cfg := kernel.Stock()
		if variant == "pk" {
			cfg = kernel.PK()
		}
		for _, n := range coresList {
			k := kernel.New(topo.New(n), cfg, 1)
			r := RunExim(k, DefaultEximOpts())
			fmt.Printf("  %-6s %2d cores: %8.0f /s/core  u=%6.1f s=%6.1f kfrac=%.2f\n",
				variant, n, r.PerCore(), r.UserMicrosPerOp(), r.SysMicrosPerOp(), r.KernelFraction())
		}
	}

	fmt.Println("== memcached (req/s/core) ==")
	for _, variant := range []string{"stock", "pk"} {
		cfg := kernel.Stock()
		if variant == "pk" {
			cfg = kernel.PK()
		}
		for _, n := range coresList {
			k := kernel.New(topo.New(n), cfg, 1)
			r := RunMemcached(k, DefaultMemcachedOpts())
			fmt.Printf("  %-6s %2d cores: %8.0f /s/core  kfrac=%.2f\n",
				variant, n, r.PerCore(), r.KernelFraction())
		}
	}

	fmt.Println("== Apache (req/s/core) ==")
	for _, variant := range []string{"stock", "pk"} {
		cfg := kernel.Stock()
		if variant == "pk" {
			cfg = kernel.PK()
		}
		for _, n := range coresList {
			k := kernel.New(topo.New(n), cfg, 1)
			r := RunApache(k, DefaultApacheOpts())
			fmt.Printf("  %-6s %2d cores: %8.0f /s/core  u=%5.1f s=%5.1f\n",
				variant, n, r.PerCore(), r.UserMicrosPerOp(), r.SysMicrosPerOp())
		}
	}

	fmt.Println("== PostgreSQL read-only (q/s/core) ==")
	for _, variant := range []string{"stock", "stock+mod", "pk+mod"} {
		cfg := kernel.Stock()
		opts := DefaultPostgresOpts()
		switch variant {
		case "stock+mod":
			opts.ModPG = true
		case "pk+mod":
			cfg = kernel.PK()
			opts.ModPG = true
		}
		for _, n := range coresList {
			k := kernel.New(topo.New(n), cfg, 1)
			r := RunPostgres(k, opts)
			fmt.Printf("  %-10s %2d cores: %8.0f /s/core  u=%5.1f s=%6.1f kfrac=%.3f\n",
				variant, n, r.PerCore(), r.UserMicrosPerOp(), r.SysMicrosPerOp(), r.KernelFraction())
		}
	}

	fmt.Println("== PostgreSQL 95/5 (q/s/core) ==")
	for _, variant := range []string{"stock", "stock+mod", "pk+mod"} {
		cfg := kernel.Stock()
		opts := DefaultPostgresOpts()
		opts.WriteFraction = 0.05
		switch variant {
		case "stock+mod":
			opts.ModPG = true
		case "pk+mod":
			cfg = kernel.PK()
			opts.ModPG = true
		}
		for _, n := range coresList {
			k := kernel.New(topo.New(n), cfg, 1)
			r := RunPostgres(k, opts)
			fmt.Printf("  %-10s %2d cores: %8.0f /s/core  u=%5.1f s=%6.1f\n",
				variant, n, r.PerCore(), r.UserMicrosPerOp(), r.SysMicrosPerOp())
		}
	}

	fmt.Println("== gmake (builds/hour/core, speedup) ==")
	var g1 float64
	for _, variant := range []string{"stock", "pk"} {
		cfg := kernel.Stock()
		if variant == "pk" {
			cfg = kernel.PK()
		}
		for _, n := range coresList {
			k := kernel.New(topo.New(n), cfg, 1)
			r := RunGmake(k, DefaultGmakeOpts())
			if n == 1 {
				g1 = r.Throughput()
			}
			fmt.Printf("  %-6s %2d cores: %8.2f /hr/core  speedup=%.1f kfrac=%.3f\n",
				variant, n, r.PerCore()*3600, r.Throughput()/g1, r.KernelFraction())
		}
	}

	fmt.Println("== pedsort (jobs/hour/core) ==")
	for _, mode := range []struct {
		name        string
		threads, rr bool
	}{{"Stock + Threads", true, false}, {"Stock + Procs", false, false}, {"Stock + Procs RR", false, true}} {
		opts := DefaultPedsortOpts()
		opts.Threads = mode.threads
		for _, n := range coresList {
			m := topo.New(n)
			if mode.rr {
				m = topo.Default().WithCoresRR(n)
			}
			k := kernel.New(m, kernel.Stock(), 1)
			r := RunPedsort(k, opts)
			fmt.Printf("  %-18s %2d cores: %8.2f /hr/core  sys_s=%5.2f user_s=%6.2f\n",
				mode.name, n, r.PerCore()*3600,
				topo.CyclesToSec(r.SysCycles), topo.CyclesToSec(r.UserCycles))
		}
	}

	fmt.Println("== Metis (jobs/hour/core) ==")
	for _, super := range []bool{false, true} {
		cfg := kernel.Stock()
		opts := DefaultMetisOpts()
		if super {
			cfg = kernel.PK()
			opts.SuperPages = true
		}
		for _, n := range coresList {
			k := kernel.New(topo.Default().WithCoresRR(n), cfg, 1)
			r := RunMetis(k, opts)
			fmt.Printf("  super=%-5v %2d cores: %8.2f /hr/core  sys_s=%6.2f\n",
				super, n, r.PerCore()*3600, topo.CyclesToSec(r.SysCycles))
		}
	}
}
