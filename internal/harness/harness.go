// Package harness defines the experiments that regenerate every table and
// figure in the paper's evaluation section, and formats their results as
// the same rows/series the paper reports.
package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Point is one measurement: an application variant at one core count.
type Point struct {
	// Cores is the active core count.
	Cores int
	// Variant is the curve label (e.g. "Stock", "PK", "Stock + Procs RR").
	Variant string
	// PerCore is throughput per core in the figure's units.
	PerCore float64
	// UserMicros and SysMicros are CPU microseconds per operation.
	UserMicros, SysMicros float64
	// DRAMUtil is each chip's memory-controller busy fraction during the
	// run (nil for workloads that do no bulk streaming).
	DRAMUtil []float64
	// LinkUtil is each HyperTransport link's busy fraction during the
	// run (nil for workloads that do no bulk streaming).
	LinkUtil []float64
	// Retries is client-visible network retransmissions per operation —
	// zero except under injected packet loss (Options.Fault) or open-loop
	// overload (client timeouts and link loss).
	Retries float64
	// Dups is discarded duplicate deliveries per operation — injected NIC
	// dups plus, open-loop, client retransmissions of queued requests.
	Dups float64
	// OfferedPerCore is the open-loop offered arrival rate per core in
	// the figure's units (0 for closed-loop points). PerCore is then
	// goodput: dividing the two gives the delivered fraction.
	OfferedPerCore float64
	// P50Micros, P99Micros, and P999Micros are client-perceived latency
	// quantiles in microseconds (0 for closed-loop points). The tail
	// diverging from P50 while PerCore still tracks OfferedPerCore is the
	// open-loop experiments' headline signal.
	P50Micros, P99Micros, P999Micros float64
}

// Series is the result of one experiment: one or more variant curves.
type Series struct {
	// ID is the experiment identifier (fig4, tbl-hw, ...).
	ID string
	// Title is a human-readable name.
	Title string
	// Unit is the per-core throughput unit (the figure's y-axis).
	Unit string
	// Points holds all measurements.
	Points []Point
	// Failed lists the sweep points that produced no measurement (panic
	// or watchdog timeout); see safeCachedPoint. A run with failed points
	// still reports every other point.
	Failed []FailedPoint
	// Notes are free-form lines (tables, attributions, caveats).
	Notes []string
}

// Variants returns the distinct variant labels in first-seen order.
func (s *Series) Variants() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range s.Points {
		if !seen[p.Variant] {
			seen[p.Variant] = true
			out = append(out, p.Variant)
		}
	}
	return out
}

// Get returns the point for (variant, cores) and whether it exists.
func (s *Series) Get(variant string, cores int) (Point, bool) {
	for _, p := range s.Points {
		if p.Variant == variant && p.Cores == cores {
			return p, true
		}
	}
	return Point{}, false
}

// Options controls an experiment run.
type Options struct {
	// Machine is the simulated host every kernel this run boots: its chip
	// count, per-chip cores, latencies, rates, and link graph. Nil means
	// the default machine (the paper's 48-core Tyan S4985). Non-default
	// machines get their own sweep-point cache sections (see
	// cacheSectionID), so results for different hosts never alias.
	Machine *topo.Machine
	// Cores is the sweep; nil uses the experiment's default, scaled to the
	// machine.
	Cores []int //mosvet:allow cachekeylint selects which points run; each point is keyed by its own core count (cacheKey's cores argument)
	// Seed is the deterministic PRNG seed.
	Seed uint64
	// Quick shrinks op budgets and the sweep for fast smoke runs.
	Quick bool
	// Serial runs a sweep's points one at a time on a single worker. By
	// default the independent points of a sweep (each owns its own Engine,
	// Model, and PRNG) execute concurrently across GOMAXPROCS workers;
	// results are assembled by index, so both modes produce identical
	// Series.
	Serial bool //mosvet:allow cachekeylint execution strategy only: serial and parallel sweeps produce identical Series, assembled by index
	// Placement selects the bulk-data placement policy for the workloads
	// that stream through the memory system (Metis, pedsort, gmake,
	// PostgreSQL). The zero value is local placement, the pre-option
	// behavior.
	Placement mem.Placement
	// Cache, when non-nil, memoizes sweep points by (experiment, variant,
	// cores, seed, quick, placement, fault, arrival, link, shed): hits
	// skip simulation entirely, and misses are stored so a repeated grid
	// run is served from the cache.
	Cache *Cache //mosvet:allow cachekeylint the cache handle itself; whether points are memoized cannot change what they compute
	// Fault, when non-nil and non-empty, is the deterministic fault plan
	// injected into every kernel the experiment boots: degraded or dead HT
	// links, throttled memory controllers, offlined cores, NIC packet
	// loss/duplication. The spec's canonical string is part of the sweep
	// cache key, so faulted points never alias clean ones.
	Fault *fault.Spec
	// PointTimeout is the per-sweep-point wall-clock watchdog; a point
	// that runs past it is abandoned and reported in Series.Failed. Zero
	// means the default (2 minutes).
	PointTimeout time.Duration //mosvet:allow cachekeylint wall-clock watchdog: it can abandon a point (reported failed, kept out of the cache), never change its value
	// Shards and ShardIndex split the sweep's point grid across
	// cooperating processes (see shard.go): with Shards > 1, this run
	// computes only the points whose identity hashes to ShardIndex and
	// silently skips the rest. Shard runs should share a Cache directory;
	// a follow-up run with Shards unset then merges every shard's points
	// into a complete Series. Validate combinations with ValidateShards.
	Shards, ShardIndex int //mosvet:allow cachekeylint sharding selects which points this process computes; the merged grid is byte-identical to the single-process run
	// Arrival, Link, and Shed configure the open-loop experiments
	// (latload): the arrival process, the client-side link shaper, and
	// the server's admission policy. Nil means each experiment's default
	// (poisson arrivals, ideal link, per-variant shedding). Their
	// canonical strings are part of the sweep cache key, so open-loop
	// points never alias closed-loop ones. Closed-loop experiments
	// ignore them.
	Arrival *load.ArrivalSpec
	Link    *load.LinkSpec
	Shed    *load.ShedSpec

	// fresh gives fanOut's workers no engine slot: every sweep point
	// builds a brand-new sim.Engine and directory pages instead of
	// reusing the worker's. TestEngineReuseDeterminism and
	// TestRecycledPagesWideMachine compare fresh engines against pooled
	// ones through it.
	fresh bool //mosvet:allow cachekeylint fresh and reused engines are bit-for-bit identical, pinned by TestEngineReuseDeterminism

	// abandoned is set by runGuarded's watchdog when it gives up on this
	// point; the flag tells a later-unwedged point body that its result
	// must not reach the shared cache. Nil outside runGuarded.
	abandoned *atomic.Bool //mosvet:allow cachekeylint runtime bookkeeping set per point; never an input to the simulation
	// slot is the calling sweep worker's pooled engine and directory-page
	// list, set by safeCachedPoint for a missed point; nil outside fanOut
	// and with fresh (fresh engines and freshly allocated pages are used
	// then).
	slot *engineSlot //mosvet:allow cachekeylint engine pooling handle; reuse is bit-for-bit identical to fresh engines
}

// DefaultCores is the standard sweep on the default machine, a subset of
// the paper's x-axis.
var DefaultCores = []int{1, 2, 4, 8, 16, 24, 32, 40, 48}

// QuickCores is the abbreviated sweep used by Quick runs on the default
// machine.
var QuickCores = []int{1, 8, 48}

func (o Options) cores() []int {
	if len(o.Cores) > 0 {
		return o.Cores
	}
	m := o.machine()
	if m.IsDefault() {
		if o.Quick {
			return QuickCores
		}
		return DefaultCores
	}
	if o.Quick {
		return quickCoresFor(m.MaxCores())
	}
	return defaultCoresFor(m.MaxCores())
}

// defaultCoresFor builds a machine's standard sweep: the small powers of
// two, then six evenly spaced steps up to the full machine — the shape of
// DefaultCores generalized (it reproduces [1 2 4 8 16 24 32 40 48] for a
// 48-core machine).
func defaultCoresFor(max int) []int {
	step := max / 6
	if step < 1 {
		step = 1
	}
	seen := map[int]bool{}
	var out []int
	add := func(c int) {
		if c >= 1 && c <= max && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range []int{1, 2, 4, 8} {
		add(c)
	}
	for k := 1; k <= 6; k++ {
		add(k * step)
	}
	add(max)
	sort.Ints(out)
	return out
}

// quickCoresFor is the abbreviated three-point sweep for a machine:
// one core, an intermediate count, and the full machine.
func quickCoresFor(max int) []int {
	mid := max / 6
	if mid < 2 {
		mid = (max + 1) / 2
	}
	seen := map[int]bool{}
	var out []int
	for _, c := range []int{1, mid, max} {
		if c >= 1 && c <= max && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// machine returns the run's simulated host (the default when unset).
func (o Options) machine() *topo.Machine {
	if o.Machine != nil {
		return o.Machine
	}
	return topo.Default()
}

// topo returns the run's machine with n cores enabled (sequential fill).
func (o Options) topo(n int) *topo.Machine { return o.machine().WithCores(n) }

// topoRR returns the run's machine with n cores enabled, round-robin.
func (o Options) topoRR(n int) *topo.Machine { return o.machine().WithCoresRR(n) }

// maxCores is the run's full-machine core count (48 on the default).
func (o Options) maxCores() int { return o.machine().MaxCores() }

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// variantRun is one labeled curve of a grid experiment. The label both
// names the points and keys the sweep-point cache, so it must be stable
// and unique within the experiment.
type variantRun struct {
	name string
	run  func(cores int, o Options) Point
}

// runGrid executes every variant at every core count in o's sweep and
// appends the points to s grouped by variant with cores ascending — exactly
// the order the equivalent nested serial loops would produce.
func (o Options) runGrid(s *Series, runs []variantRun) {
	cores := o.cores()
	pts, errs := o.fanOut(s, len(runs)*len(cores), func(i int) (string, int, func(int, Options) Point) {
		vr := runs[i/len(cores)]
		return vr.name, cores[i%len(cores)], vr.run
	})
	for i, p := range pts {
		if errs[i] == nil {
			s.Points = append(s.Points, p)
		}
	}
}

// fanOut runs n sweep points of s's experiment across GOMAXPROCS workers
// (one with o.Serial); at(i) names point i (variant and core count, the two
// parts of its cache key) and returns the body that computes it. Every
// point goes through safeCachedPoint: served from o.Cache when possible,
// skipped when another shard owns it, and crash-isolated otherwise. Each
// worker owns one engine slot for the sweep (unless o.fresh), made at its
// first cache miss and closed when the sweep ends, and each point that
// returns a result hands its directory pages to the worker's next point.
// A point that wedges past the watchdog keeps its slot, and the worker
// makes another. Every point is an independent simulation writing only its
// own index, so the result does not depend on execution order. Failures
// land in s.Failed in index order. The returned slices are indexed like
// at: errs[i] is nil exactly when pts[i] holds a measurement, so
// experiments that derive rows from several points can tell which rows to
// skip (see rowSkipReason).
func (o Options) fanOut(s *Series, n int, at func(i int) (variant string, cores int, run func(cores int, o Options) Point)) ([]Point, []error) {
	pts := make([]Point, n)
	errs := make([]error, n)
	a := o.sweepAddr(s.ID)
	workers := runtime.GOMAXPROCS(0)
	if o.Serial {
		workers = 1
	}
	var next atomic.Int64
	worker := func() {
		var slot *engineSlot
		defer func() { slot.close() }()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			variant, cores, run := at(i)
			pts[i], errs[i] = o.safeCachedPoint(a, &slot, variant, cores, run)
		}
	}
	// The calling goroutine is worker 0; point bodies run on runGuarded's
	// own goroutine either way.
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() { //mosvet:allow detlint sweep workers parallelize independent points (each owns its engine and PRNG); results are assembled by index
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, errShardSkipped) {
			variant, cores, _ := at(i)
			s.Failed = append(s.Failed, FailedPoint{Variant: variant, Cores: cores, Err: err.Error()})
		}
	}
	return pts, errs
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID matches the DESIGN.md index (fig1..fig12, tbl-hw, ...).
	ID string
	// Title describes the artifact.
	Title string
	// Paper cites what the artifact shows in the paper.
	Paper string
	// Domains lists the cost-model domains this experiment's measurements
	// depend on (see costDomains): "topo", "mem", "kernel", and the
	// "apps/<name>" domain of every workload it runs. The sweep-point
	// cache stores the experiment's points under the combined fingerprint
	// of these domains, so retuning one workload's constants invalidates
	// only the figures that workload appears in. An empty list is the
	// conservative default: every domain, so any retune invalidates.
	Domains []string
	// Run executes the experiment.
	Run func(Options) *Series
}

var registry []Experiment

// register adds an experiment after checking its cost domains.
func register(e Experiment) {
	checkDomains(e.ID, e.Domains)
	registry = append(registry, e)
}

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// Format renders a series as an aligned text table, one row per core
// count, one column group per variant — the shape of the paper's figures.
func Format(s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", s.ID, s.Title)
	if len(s.Points) > 0 {
		variants := s.Variants()
		coresSet := map[int]bool{}
		for _, p := range s.Points {
			coresSet[p.Cores] = true
		}
		var cores []int
		for c := range coresSet {
			cores = append(cores, c)
		}
		sort.Ints(cores)

		fmt.Fprintf(&b, "%-6s", "cores")
		for _, v := range variants {
			fmt.Fprintf(&b, " | %-28s", v+" ("+s.Unit+", us u/s)")
		}
		b.WriteString("\n")
		for _, c := range cores {
			fmt.Fprintf(&b, "%-6d", c)
			for _, v := range variants {
				if p, ok := s.Get(v, c); ok {
					fmt.Fprintf(&b, " | %10.1f %7.1f %7.1f ", p.PerCore, p.UserMicros, p.SysMicros)
				} else {
					fmt.Fprintf(&b, " | %-28s", "-")
				}
			}
			b.WriteString("\n")
		}
		// Per-chip memory-controller utilization, one row per point that
		// streamed bulk data — this is where DRAM saturation localizes.
		writeUtilRows(&b, s, variants, cores, "dram controller utilization (per chip):\n",
			func(p Point) []float64 { return p.DRAMUtil })
		// Tail latency, one row per open-loop point: offered rate,
		// delivered goodput, and the sojourn quantiles. p99 pulling away
		// from p50 while goodput still tracks offered is the overload
		// early warning the mean never shows.
		wroteHeader := false
		for _, v := range variants {
			for _, c := range cores {
				p, ok := s.Get(v, c)
				if !ok || p.OfferedPerCore == 0 {
					continue
				}
				if !wroteHeader {
					b.WriteString("tail latency (offered/core, goodput/core, p50/p99/p999 us):\n")
					wroteHeader = true
				}
				fmt.Fprintf(&b, "  %-28s %3d: %10.0f %10.0f %8.1f %8.1f %8.1f\n",
					v, c, p.OfferedPerCore, p.PerCore, p.P50Micros, p.P99Micros, p.P999Micros)
			}
		}
		// Per-link HT utilization: the busiest link pinned near 1.00 while
		// controllers idle is interconnect saturation.
		writeUtilRows(&b, s, variants, cores, "ht link utilization (per link):\n",
			func(p Point) []float64 { return p.LinkUtil })
	}
	if len(s.Failed) > 0 {
		fmt.Fprintf(&b, "failed points (%d):\n", len(s.Failed))
		for _, f := range s.Failed {
			// First line only: panic errors carry a stack trace.
			msg, _, _ := strings.Cut(f.Err, "\n")
			fmt.Fprintf(&b, "  %-28s %3d: %s\n", f.Variant, f.Cores, msg)
		}
	}
	for _, n := range s.Notes {
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// writeUtilRows writes one "variant cores: utilizations" row per point
// whose util is nonempty, under heading, which is omitted when no point
// has any.
func writeUtilRows(b *strings.Builder, s *Series, variants []string, cores []int, heading string, util func(Point) []float64) {
	for _, v := range variants {
		for _, c := range cores {
			p, ok := s.Get(v, c)
			if !ok || len(util(p)) == 0 {
				continue
			}
			b.WriteString(heading)
			heading = ""
			fmt.Fprintf(b, "  %-28s %2d cores: %s\n", v, c, formatUtil(util(p)))
		}
	}
}

// formatUtil renders a per-chip utilization vector compactly.
func formatUtil(util []float64) string {
	var b strings.Builder
	for i, u := range util {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f", u)
	}
	return b.String()
}

// CSV renders a series as CSV with a header row. The dram_util and
// link_util columns hold the per-chip controller and per-link HT
// utilizations joined by ';' (empty for workloads that stream no bulk
// data). Numbers are appended with strconv's 'g' with precision -1,
// exactly fmt's %g, and utilizations with appendUtil, exactly %.3f.
func CSV(s *Series) string {
	b := []byte("experiment,variant,cores,per_core,user_us,sys_us,retries,dups,offered_per_core,p50_us,p99_us,p999_us,dram_util,link_util\n")
	for _, p := range s.Points {
		b = append(b, s.ID...)
		b = append(b, ',')
		b = append(b, p.Variant...)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Cores), 10)
		for _, v := range [...]float64{p.PerCore, p.UserMicros, p.SysMicros, p.Retries,
			p.Dups, p.OfferedPerCore, p.P50Micros, p.P99Micros, p.P999Micros} {
			b = append(b, ',')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		for _, util := range [...][]float64{p.DRAMUtil, p.LinkUtil} {
			b = append(b, ',')
			for i, u := range util {
				if i > 0 {
					b = append(b, ';')
				}
				b = appendUtil(b, u)
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}

// appendUtil appends v as strconv.AppendFloat(b, v, 'f', 3, 64) does, byte
// for byte, in integer arithmetic. A fixed-precision 'f' always takes
// strconv's multi-precision slow path; here a finite v = ±m·2^-s is
// rendered as round(m·1000 / 2^s), with an exact tie rounded half to even,
// strconv's own rule (0.0625 → 0.062, 0.1875 → 0.188). The product fits in
// 64 bits because m < 2^53. Zero and every |v| below 2^-11 round to
// ±0.000 without any arithmetic. NaN, ±Inf and integers of 2^64 and up
// fall back to strconv.
func appendUtil(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	exp := int(u>>52) & 0x7ff
	m := u & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		return strconv.AppendFloat(b, v, 'f', 3, 64)
	case 0:
		exp = 1 // subnormal: no implicit leading bit
	default:
		m |= 1 << 52
	}
	var ip, frac uint64 // |v| rounded to thousandths: ip + frac/1000
	switch s := 1075 - exp; {
	case s <= 0:
		if s < -11 { // m<<-s would overflow 64 bits
			return strconv.AppendFloat(b, v, 'f', 3, 64)
		}
		ip = m << -s
	case s < 64:
		p := m * 1000
		q, rem, half := p>>s, p&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
		ip, frac = q/1000, q%1000
	}
	// s >= 64: |v| < 2^53·2^-64 = 2^-11 < 0.0005, which rounds to zero.
	if u>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, ip, 10)
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
