// Package mosbench is the public API of the MOSBENCH reproduction: it runs
// the experiments that regenerate the tables and figures of "An Analysis
// of Linux Scalability to Many Cores" (OSDI 2010) on the simulated 48-core
// machine, and returns their results as plain data.
//
// A minimal use:
//
//	series, err := mosbench.Run("fig4", mosbench.Options{Quick: true})
//	fmt.Print(mosbench.Table(series))
//
// Experiment IDs follow the paper: fig1..fig12 for its figures, plus
// tbl-hw (the §5.1 latency table), dma (the §5.3 allocation ablation),
// nic-env (the §5.4 card envelope), and ablate (per-fix ablations). The
// rest extend the paper: its methodology (profile), design choices
// (sloppy-threshold, scount, spool-dirs, lockmgr, steering,
// scalable-locks), the memory system (dram, ht), other hosts
// (machines), injected faults (degrade) and open-loop load (latload).
// Experiments lists them all, as `mosbench -list` does.
package mosbench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Options controls a run.
type Options struct {
	// Cores overrides the core-count sweep (default: 1..48 subset).
	Cores []int
	// Quick shrinks budgets and the sweep for fast runs.
	Quick bool
	// Seed sets the deterministic PRNG seed (0 = default).
	Seed uint64
	// Serial disables the concurrent execution of independent sweep
	// points. Results are identical either way; serial mode exists for
	// debugging and for pinning the harness to one OS thread.
	Serial bool
	// Placement selects the bulk-data placement policy for workloads
	// that stream through the memory system (Metis, pedsort, gmake,
	// PostgreSQL): "local" (default), "striped", "remote", or "home:N".
	Placement string
	// Cache, when non-nil, memoizes sweep points by (experiment, variant,
	// cores, seed, quick, placement, fault, arrival, link, shed) under
	// per-experiment cost-model fingerprints, so a repeated grid run is
	// served without simulating and a retune invalidates only the
	// affected experiments. A non-default Machine gets its own sections.
	// Open one with OpenCache and Save it when done.
	Cache *Cache
	// Fault is a deterministic fault-injection spec applied to every
	// kernel the experiment boots: comma-separated events like
	// "link:3-4@50%,dram:0@75%,core:7@off,drop:0.01,dup:0.001", each with
	// an optional "@t=<dur>" activation time ("link:0-1@down@t=2ms").
	// Empty or "none" injects nothing.
	Fault string
	// PointTimeout bounds one sweep point's wall clock; a point that runs
	// past it is abandoned and reported in Series.Failed. Zero means the
	// default (2 minutes).
	PointTimeout time.Duration
	// Arrival selects the open-loop arrival process for load experiments
	// (latload): "poisson[:users=N]" or "pareto[:alpha=A][,users=N]".
	// Empty or "none" keeps the experiment's default.
	Arrival string
	// Link shapes the simulated client link for open-loop experiments:
	// comma-separated "rtt=20ms±5", "loss=0.1%", "bw=10mbit" fields.
	// Empty or "none" is an ideal link.
	Link string
	// Shed selects the open-loop server's admission policy: "fifo"
	// (unbounded queue), "qlen=N" (bounded accept queue), or
	// "delay=100us" (delay-bounded accept queue). Empty keeps the
	// experiment's default.
	Shed string
	// Machine selects the simulated host by registered profile name
	// ("s4985", "ring16", "mesh4x4", "big192", ...; see Machines). Empty
	// runs the paper's default 48-core Tyan S4985. A non-default machine
	// gets its own cache sections, so switching profiles never invalidates
	// the default machine's warm cache.
	Machine string
	// Shards and ShardIndex split the sweep's point grid across
	// cooperating processes: with Shards > 1, this run computes only the
	// points whose identity hashes to ShardIndex (0-based) and skips the
	// rest — no enumeration-order coordination needed. Shard runs should
	// share a Cache directory; a follow-up run with Shards left at 0 (or
	// 1) then merges every shard's stored points into a complete Series.
	// ShardIndex must be in [0, Shards); Run rejects invalid combinations.
	Shards, ShardIndex int
}

// MachineProfile describes one registered machine profile.
type MachineProfile struct {
	// Name is what Options.Machine (and cmd/mosbench -machine) accepts.
	Name string
	// Chips and Cores are the profile's chip count and total core count.
	Chips, Cores int
	// Default marks the paper's host, used when Options.Machine is empty.
	Default bool
}

// Machines lists the registered machine profiles, sorted by name.
func Machines() []MachineProfile {
	var out []MachineProfile
	for _, name := range topo.Names() {
		m, _ := topo.Lookup(name)
		out = append(out, MachineProfile{
			Name: name, Chips: m.Chips, Cores: m.MaxCores(),
			Default: name == topo.Default().Name,
		})
	}
	return out
}

// The result and cache types are the harness's own, re-exported.
type (
	// Point is one measurement: an application variant at one core count.
	Point = harness.Point
	// FailedPoint identifies one sweep point that produced no
	// measurement: its simulation panicked or wedged past the per-point
	// watchdog. The rest of the sweep is unaffected.
	FailedPoint = harness.FailedPoint
	// Series is the result of one experiment: its Points, the points that
	// Failed, and free-form Notes.
	Series = harness.Series
	// Cache is a handle to an on-disk sweep-point cache shared across
	// runs and machines. Points are stored in per-experiment sections,
	// each stamped with the combined cost-model fingerprint of the
	// domains its experiment depends on, so retuning one application's
	// constants invalidates only that application's figures. A schema
	// hash remains the outer guard against Point-shape refactors.
	Cache = harness.Cache
	// CacheStats is a snapshot of a cache's per-experiment activity.
	CacheStats = harness.CacheStats
	// ExperimentCacheStats is one experiment's cache activity.
	ExperimentCacheStats = harness.ExperimentCacheStats
	// BenchResult is one machine-readable performance measurement of the
	// simulator itself (engine dispatch, handoff, sweep wall-clock).
	BenchResult = harness.BenchResult
)

// OpenCache opens (creating if needed) the point cache stored in dir.
// One-line warnings — an ignored unparsable or stale-schema cache file,
// orphan temp files removed after an interrupted save — go to stderr; use
// OpenCacheLogged to direct them elsewhere (nil silences them).
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheLogged(dir, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
}

// OpenCacheLogged opens the point cache stored in dir, reporting
// conditions worth knowing about (ignored cache files, removed orphan
// temp files) as one-line messages through logf. A nil logf is silent.
func OpenCacheLogged(dir string, logf func(format string, args ...any)) (*Cache, error) {
	return harness.OpenCacheLogged(dir, logf)
}

// Table renders a series as an aligned text table.
func Table(s *Series) string { return harness.Format(s) }

// CSV renders a series as CSV.
func CSV(s *Series) string { return harness.CSV(s) }

// WriteBenchJSON runs the simulator's performance microbenchmarks (engine
// dispatch fast path, proc handoff, fresh vs reused spawn/run cycles, and
// quick-sweep wall-clock cold vs warm-cache) and writes them as JSON to
// path — the machine-readable artifact cmd/mosbench -benchjson emits.
func WriteBenchJSON(path string) ([]BenchResult, error) { return harness.WriteBenchJSON(path) }

// CompareBenchJSON compares the bench report at currentPath against the
// committed baseline at baselinePath: every metric present in both whose
// ns/op grew by more than factor is returned as one human-readable
// regression line. An empty slice means no regression. This is the CI
// gate behind cmd/mosbench -benchbaseline.
func CompareBenchJSON(baselinePath, currentPath string, factor float64) ([]string, error) {
	base, err := harness.ReadBenchReport(baselinePath)
	if err != nil {
		return nil, err
	}
	cur, err := harness.ReadBenchReport(currentPath)
	if err != nil {
		return nil, err
	}
	return harness.CompareBenchReports(base, cur, factor), nil
}

// Experiment describes one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string
}

// Experiments lists everything Run accepts.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range harness.Experiments() {
		out = append(out, Experiment{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	return out
}

// Run executes the experiment with the given ID. Invalid Options are
// rejected with the error Check reports, before anything runs.
func Run(id string, o Options) (*Series, error) {
	e := harness.ByID(id)
	if e == nil {
		return nil, fmt.Errorf("mosbench: unknown experiment %q (use Experiments())", id)
	}
	ho, err := o.harness()
	if err != nil {
		return nil, err
	}
	return e.Run(ho), nil
}

// OptionError is the error Check and Run return for an invalid Options
// value: Field names the Options field at fault ("Placement",
// "ShardIndex", ...), and Err says what is wrong with it.
type OptionError struct {
	Field string
	Err   error
}

func (e *OptionError) Error() string { return fmt.Sprintf("mosbench: bad %s: %v", e.Field, e.Err) }

// Check validates o without running anything, returning the
// *OptionError a Run with these Options would report, or nil. Every spec
// is checked against the selected machine: a home:N placement, a link or
// dram fault and a core count must exist on it.
func Check(o Options) error {
	_, err := o.harness()
	return err
}

// harness checks o and converts it to the harness's options.
func (o Options) harness() (harness.Options, error) {
	bad := func(field string, err error) (harness.Options, error) {
		return harness.Options{}, &OptionError{Field: field, Err: err}
	}
	m := topo.Default()
	if o.Machine != "" {
		var ok bool
		if m, ok = topo.Lookup(o.Machine); !ok {
			return bad("Machine", fmt.Errorf("unknown machine %q (registered: %s)",
				o.Machine, strings.Join(topo.Names(), ", ")))
		}
	}
	pl, err := mem.ParsePlacementFor(m, o.Placement)
	if err != nil {
		return bad("Placement", err)
	}
	for _, n := range o.Cores {
		if n < 1 || n > m.MaxCores() {
			return bad("Cores", fmt.Errorf("core count %d out of range [1,%d]", n, m.MaxCores()))
		}
	}
	ho := harness.Options{
		Cores: o.Cores, Quick: o.Quick, Seed: o.Seed, Serial: o.Serial,
		Placement: pl, PointTimeout: o.PointTimeout, Cache: o.Cache,
	}
	if o.Machine != "" {
		ho.Machine = m
	}
	if o.Shards != 0 || o.ShardIndex != 0 {
		if err := harness.ValidateShards(o.Shards, o.ShardIndex); err != nil {
			if o.Shards < 1 {
				return bad("Shards", err)
			}
			return bad("ShardIndex", err)
		}
		ho.Shards, ho.ShardIndex = o.Shards, o.ShardIndex
	}
	if ho.Fault, err = fault.Parse(o.Fault); err != nil {
		return bad("Fault", err)
	}
	if err := ho.Fault.ValidateFor(m); err != nil {
		return bad("Fault", err)
	}
	if ho.Arrival, err = load.ParseArrival(o.Arrival); err != nil {
		return bad("Arrival", err)
	}
	if ho.Link, err = load.ParseLink(o.Link); err != nil {
		return bad("Link", err)
	}
	if ho.Shed, err = load.ParseShed(o.Shed); err != nil {
		return bad("Shed", err)
	}
	return ho, nil
}
