package apps

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/topo"
)

// These tests assert the qualitative shapes of the paper's Figures 4-11:
// who wins, roughly by what factor, and where the curves break. Absolute
// numbers are not asserted (the substrate is a simulator, not the authors'
// testbed).

func eximAt(cfg kernel.Config, cores int) Result {
	k := kernel.New(topo.New(cores), cfg, 1)
	opts := DefaultEximOpts()
	opts.MessagesPerCore = 30
	return RunExim(k, opts)
}

func TestFig4EximShape(t *testing.T) {
	stock1 := eximAt(kernel.Stock(), 1)
	stock48 := eximAt(kernel.Stock(), 48)
	pk1 := eximAt(kernel.PK(), 1)
	pk48 := eximAt(kernel.PK(), 48)

	if r := stock48.PerCore() / stock1.PerCore(); r > 0.45 {
		t.Errorf("stock Exim retains %.0f%% per-core throughput at 48 cores; paper shows collapse", r*100)
	}
	if r := pk48.PerCore() / pk1.PerCore(); r < 0.7 {
		t.Errorf("PK Exim retains only %.0f%% per-core throughput at 48 cores; paper shows modest decline", r*100)
	}
	if pk48.PerCore() < 2.5*stock48.PerCore() {
		t.Errorf("PK Exim at 48 cores (%.0f/s/core) should far exceed stock (%.0f/s/core)",
			pk48.PerCore(), stock48.PerCore())
	}
	// §3.1: Exim spends ~69% of its time in the kernel on one core.
	if kf := stock1.KernelFraction(); kf < 0.45 || kf > 0.8 {
		t.Errorf("Exim 1-core kernel fraction = %.2f; paper reports 0.69", kf)
	}
	// Stock collapse shows up as system time, as in Figure 4's breakdown.
	if stock48.SysMicrosPerOp() < 3*stock1.SysMicrosPerOp() {
		t.Errorf("stock Exim sys time/msg at 48 cores (%.0f us) should balloon vs 1 core (%.0f us)",
			stock48.SysMicrosPerOp(), stock1.SysMicrosPerOp())
	}
}

func memcachedAt(cfg kernel.Config, cores int, useNIC bool) Result {
	k := kernel.New(topo.New(cores), cfg, 1)
	opts := DefaultMemcachedOpts()
	opts.RequestsPerCore = 200
	opts.UseNIC = useNIC
	return RunMemcached(k, opts)
}

func TestFig5MemcachedShape(t *testing.T) {
	stock1 := memcachedAt(kernel.Stock(), 1, true)
	stock48 := memcachedAt(kernel.Stock(), 48, true)
	pk1 := memcachedAt(kernel.PK(), 1, true)
	pk8 := memcachedAt(kernel.PK(), 8, true)
	pk48 := memcachedAt(kernel.PK(), 48, true)

	if r := stock48.PerCore() / stock1.PerCore(); r > 0.15 {
		t.Errorf("stock memcached retains %.0f%% at 48 cores; paper shows deep collapse", r*100)
	}
	// PK holds flat through at least 8 cores...
	if r := pk8.PerCore() / pk1.PerCore(); r < 0.9 {
		t.Errorf("PK memcached dropped to %.0f%% already at 8 cores; should be flat", r*100)
	}
	// ...then the card itself limits it (§5.3): visible drop by 48,
	// but still far above stock.
	if r := pk48.PerCore() / pk1.PerCore(); r > 0.6 {
		t.Errorf("PK memcached retains %.0f%% at 48 cores; the NIC envelope should bite", r*100)
	}
	if pk48.PerCore() < 3*stock48.PerCore() {
		t.Errorf("PK memcached at 48 (%.0f) should far exceed stock (%.0f)",
			pk48.PerCore(), stock48.PerCore())
	}
	// §3.2: ~80% kernel time at one core.
	if kf := stock1.KernelFraction(); kf < 0.6 || kf > 0.9 {
		t.Errorf("memcached 1-core kernel fraction = %.2f; paper reports 0.80", kf)
	}
}

func TestFig5MemcachedKernelSideIsFixedWithoutNIC(t *testing.T) {
	// Remove the card: PK must then scale near-perfectly, proving the
	// residual drop is the hardware, not the kernel — the paper's
	// conclusion for memcached.
	pk1 := memcachedAt(kernel.PK(), 1, false)
	pk48 := memcachedAt(kernel.PK(), 48, false)
	if r := pk48.PerCore() / pk1.PerCore(); r < 0.8 {
		t.Errorf("PK memcached without NIC retains only %.0f%% at 48 cores; kernel should not be the limit", r*100)
	}
}

func apacheAt(cfg kernel.Config, cores int) Result {
	k := kernel.New(topo.New(cores), cfg, 1)
	opts := DefaultApacheOpts()
	opts.RequestsPerCore = 80
	return RunApache(k, opts)
}

func TestFig6ApacheShape(t *testing.T) {
	stock1 := apacheAt(kernel.Stock(), 1) // stock runs per-core instances
	stock24 := apacheAt(kernel.Stock(), 24)
	stock48 := apacheAt(kernel.Stock(), 48)
	pk1 := apacheAt(kernel.PK(), 1)
	pk24 := apacheAt(kernel.PK(), 24)
	pk48 := apacheAt(kernel.PK(), 48)

	if r := stock48.PerCore() / stock1.PerCore(); r > 0.35 {
		t.Errorf("stock Apache retains %.0f%% at 48 cores; paper shows collapse", r*100)
	}
	if pk24.PerCore() < 1.1*stock24.PerCore() {
		t.Errorf("PK Apache at 24 cores (%.0f) should clearly beat stock (%.0f)",
			pk24.PerCore(), stock24.PerCore())
	}
	// Past ~36 cores PK is card-limited (§5.4): per-core throughput
	// declines even though system time stays flat.
	if r := pk48.PerCore() / pk1.PerCore(); r > 0.6 {
		t.Errorf("PK Apache retains %.0f%% at 48; the RX FIFO cap should bite", r*100)
	}
	if pk48.SysMicrosPerOp() > 1.3*pk1.SysMicrosPerOp() {
		t.Errorf("PK Apache sys time grew from %.0f to %.0f us/req; kernel path should stay flat",
			pk1.SysMicrosPerOp(), pk48.SysMicrosPerOp())
	}
	if stock48.SysMicrosPerOp() < 3*stock1.SysMicrosPerOp() {
		t.Errorf("stock Apache sys time/req should balloon (got %.0f vs %.0f us)",
			stock48.SysMicrosPerOp(), stock1.SysMicrosPerOp())
	}
}

func postgresAt(cfg kernel.Config, cores int, writeFrac float64, mod bool) Result {
	k := kernel.New(topo.New(cores), cfg, 1)
	opts := DefaultPostgresOpts()
	// The lseek-mutex convoy is a positive-feedback collapse; it needs a
	// steady-state-length run to ignite, like the paper's sustained load.
	opts.QueriesPerCore = 400
	opts.WriteFraction = writeFrac
	opts.ModPG = mod
	return RunPostgres(k, opts)
}

func TestFig7PostgresReadOnlyShape(t *testing.T) {
	stock1 := postgresAt(kernel.Stock(), 1, 0, false)
	stock48 := postgresAt(kernel.Stock(), 48, 0, false)
	mod48 := postgresAt(kernel.Stock(), 48, 0, true)
	pk1 := postgresAt(kernel.PK(), 1, 0, true)
	pk48 := postgresAt(kernel.PK(), 48, 0, true)

	// Stock kernel collapses (lseek); the PG modification alone does not
	// help the read-only workload (§5.5: "largely unaffected").
	if r := stock48.PerCore() / stock1.PerCore(); r > 0.3 {
		t.Errorf("stock PG read-only retains %.0f%% at 48; paper shows collapse", r*100)
	}
	if d := mod48.PerCore() / stock48.PerCore(); d < 0.7 || d > 1.4 {
		t.Errorf("modPG changed the read-only stock result by %.1fx; paper says largely unaffected", d)
	}
	if r := pk48.PerCore() / pk1.PerCore(); r < 0.7 {
		t.Errorf("PK+modPG read-only retains only %.0f%% at 48; paper shows no collapse", r*100)
	}
	// §3.4: 1.5% kernel time at one core.
	if kf := stock1.KernelFraction(); kf > 0.1 {
		t.Errorf("PG 1-core kernel fraction = %.2f; paper reports 0.015", kf)
	}
}

func TestFig8PostgresReadWriteShape(t *testing.T) {
	stock16 := postgresAt(kernel.Stock(), 16, 0.05, false)
	stock24 := postgresAt(kernel.Stock(), 24, 0.05, false)
	mod24 := postgresAt(kernel.Stock(), 24, 0.05, true)
	mod48 := postgresAt(kernel.Stock(), 48, 0.05, true)
	pk48 := postgresAt(kernel.PK(), 48, 0.05, true)
	pk1 := postgresAt(kernel.PK(), 1, 0.05, true)

	// Stock PG's 16-mutex lock manager breaks first (paper: total
	// throughput peaks at 28 cores; our scaled model peaks earlier).
	if stock24.PerCore() > 0.75*stock16.PerCore() {
		t.Errorf("stock PG r/w per-core at 24 (%.0f) vs 16 (%.0f): lock manager should be biting",
			stock24.PerCore(), stock16.PerCore())
	}
	// modPG postpones the collapse...
	if mod24.PerCore() < 1.3*stock24.PerCore() {
		t.Errorf("modPG at 24 cores (%.0f) should clearly beat stock PG (%.0f)",
			mod24.PerCore(), stock24.PerCore())
	}
	// ...but then the kernel's lseek mutex collapses it between 32 and 48
	// cores (§5.5: system time rises from 1.7 us/query at 32 cores to
	// 322 us at 48).
	if mod48.PerCore() > 0.3*mod24.PerCore() {
		t.Errorf("stock-kernel modPG at 48 (%.0f) vs 24 (%.0f): lseek collapse missing",
			mod48.PerCore(), mod24.PerCore())
	}
	if mod48.SysMicrosPerOp() < 4*mod24.SysMicrosPerOp() {
		t.Errorf("stock-kernel modPG sys time at 48 (%.1f us) vs 24 (%.1f us): should balloon",
			mod48.SysMicrosPerOp(), mod24.SysMicrosPerOp())
	}
	// PK fixes it.
	if r := pk48.PerCore() / pk1.PerCore(); r < 0.7 {
		t.Errorf("PK+modPG r/w retains only %.0f%% at 48", r*100)
	}
}

func TestFig9GmakeShape(t *testing.T) {
	opts := DefaultGmakeOpts()
	run := func(cfg kernel.Config, cores int) Result {
		return RunGmake(kernel.New(topo.New(cores), cfg, 1), opts)
	}
	stock1 := run(kernel.Stock(), 1)
	stock48 := run(kernel.Stock(), 48)
	pk48 := run(kernel.PK(), 48)

	speedup := stock48.Throughput() / stock1.Throughput()
	if speedup < 25 || speedup > 45 {
		t.Errorf("gmake 48-core speedup = %.1f; paper reports ~35x", speedup)
	}
	// Both kernels behave the same for gmake (§5.6).
	if d := pk48.Throughput() / stock48.Throughput(); d < 0.95 || d > 1.1 {
		t.Errorf("PK/stock gmake ratio = %.2f; should be ~1", d)
	}
	// §3.5: 7.6% system time at one core.
	if kf := stock1.KernelFraction(); kf < 0.03 || kf > 0.15 {
		t.Errorf("gmake 1-core kernel fraction = %.2f; paper reports 0.076", kf)
	}
}

// pedsortAt runs pedsort on threads or processes, with the active cores
// packed onto the fewest chips or spread round-robin across them (rr).
func pedsortAt(threads, rr bool, cores int) Result {
	m := topo.New(cores)
	if rr {
		m = topo.Default().WithCoresRR(cores)
	}
	k := kernel.New(m, kernel.Stock(), 1)
	opts := DefaultPedsortOpts()
	opts.Threads = threads
	return RunPedsort(k, opts)
}

func TestFig10PedsortShape(t *testing.T) {
	threads48 := pedsortAt(true, false, 48)
	procs1 := pedsortAt(false, false, 1)
	procs8 := pedsortAt(false, false, 8)
	procs48 := pedsortAt(false, false, 48)
	rr8 := pedsortAt(false, true, 8)
	rr48 := pedsortAt(false, true, 48)

	// Threads lose to processes (mmap serialization + thread-safe libc).
	if threads48.PerCore() > 0.9*procs48.PerCore() {
		t.Errorf("threaded pedsort at 48 (%.0f) should lose to processes (%.0f)",
			threads48.PerCore(), procs48.PerCore())
	}
	threads1 := pedsortAt(true, false, 1)
	if threads1.PerCore() > procs1.PerCore() {
		t.Error("threaded pedsort should lose even on one core (thread-safe glibc)")
	}
	// Round-robin placement wins while sockets are underpopulated
	// (more L3 per active core)...
	if rr8.PerCore() < 1.5*procs8.PerCore() {
		t.Errorf("RR pedsort at 8 cores (%.0f) should far exceed packed (%.0f)",
			rr8.PerCore(), procs8.PerCore())
	}
	// ...and converges with packed at 48 where both fill every socket.
	if d := rr48.PerCore() / procs48.PerCore(); d < 0.75 || d > 1.25 {
		t.Errorf("RR/packed ratio at 48 cores = %.2f; should converge near 1", d)
	}
	// §3.6: 1.9% kernel time at one core for the process version.
	if kf := procs1.KernelFraction(); kf > 0.1 {
		t.Errorf("pedsort 1-core kernel fraction = %.2f; paper reports 0.019", kf)
	}
}

func metisAt(super bool, cores int) Result {
	cfg := kernel.Stock()
	if super {
		cfg = kernel.PK()
	}
	k := kernel.New(topo.Default().WithCoresRR(cores), cfg, 1)
	opts := DefaultMetisOpts()
	opts.SuperPages = super
	return RunMetis(k, opts)
}

func TestFig11MetisShape(t *testing.T) {
	small1 := metisAt(false, 1)
	small48 := metisAt(false, 48)
	super1 := metisAt(true, 1)
	super48 := metisAt(true, 48)

	// 4 KB pages collapse on the region-list lock; 2 MB + PK does not.
	if small48.PerCore() > 0.45*super48.PerCore() {
		t.Errorf("4KB Metis at 48 (%.0f) should be far below 2MB+PK (%.0f)",
			small48.PerCore()*3600, super48.PerCore()*3600)
	}
	// With super-pages, kernel time becomes negligible (§5.8).
	if kf := super48.KernelFraction(); kf > 0.05 {
		t.Errorf("2MB Metis kernel fraction at 48 = %.2f; paper says negligible", kf)
	}
	// The residual 2MB decline is DRAM bandwidth, visible but bounded.
	if r := super48.PerCore() / super1.PerCore(); r < 0.4 || r > 0.95 {
		t.Errorf("2MB Metis retains %.0f%% at 48; expect a moderate DRAM-bound decline", r*100)
	}
	// §3.7: ~3% kernel at one core.
	if kf := small1.KernelFraction(); kf > 0.15 {
		t.Errorf("Metis 1-core kernel fraction = %.2f; paper reports 0.03", kf)
	}
}
