package harness

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/topo"
)

// DefaultDegradeSpec is the fault plan the degrade experiment sweeps when
// the run supplies none: two half-rate HT links, one half-rate memory
// controller on the I/O hub chip, and 2% client-visible packet loss.
const DefaultDegradeSpec = "link:0-1@50%,link:4-5@50%,dram:0@50%,drop:0.02"

// degradeQuickCores is the reduced core count quick severity sweeps run
// at; full runs use the whole machine.
const degradeQuickCores = 8

// degradeSeverities is the fault-scale sweep, in percent of the full spec.
var (
	degradeSeverities      = []int{0, 25, 50, 75, 100}
	degradeQuickSeverities = []int{0, 50, 100}
)

func init() {
	register(Experiment{
		ID:    "degrade",
		Title: "Graceful degradation under injected faults (memcached, fixed cores)",
		Paper: "Robustness extension (not a paper figure): per-core throughput vs fault severity, stock vs PK",
		// Depends on the fault model's retry constants in addition to the
		// usual memcached stack.
		Domains: append(withApps("memcached"), "fault"),
		Run:     runDegrade,
	})
}

// runDegrade sweeps fault severity at a fixed core count: the base fault
// spec (Options.Fault, or DefaultDegradeSpec) is scaled to each severity
// and injected into a stock and a PK memcached run. The Cores column
// carries the severity percent (the precedent is fig3, whose Cores column
// carries the application ordinal).
func runDegrade(o Options) *Series {
	m := o.machine()
	cores := m.MaxCores()
	severities := degradeSeverities
	if o.Quick {
		if degradeQuickCores < cores {
			cores = degradeQuickCores
		}
		severities = degradeQuickSeverities
	}
	base := o.Fault
	if base == nil || base.IsZero() {
		var err error
		base, err = fault.Parse(DefaultDegradeSpec)
		if err != nil {
			panic(fmt.Sprintf("harness: DefaultDegradeSpec: %v", err))
		}
	}

	s := &Series{
		ID:    "degrade",
		Title: fmt.Sprintf("Graceful degradation at %d cores, fault spec %s", cores, base),
		Unit:  "req/s/core",
	}
	// Reuse the grid machinery with severity as the sweep axis: runGrid
	// hands each variantRun one value from o.Cores, which here is the
	// severity percent, and the runner pins the real core count itself.
	so := o
	so.Cores = severities
	var runs []variantRun
	for _, v := range mosAppNamed("memcached").pair() {
		runs = append(runs, variantRun{v.name, func(sev int, co Options) Point {
			co.Fault = base.Scale(float64(sev) / 100)
			return v.run(cores, co)
		}})
	}
	so.runGrid(s, runs)

	s.Notes = append(s.Notes,
		fmt.Sprintf("cores column = fault severity (%% of spec) at a fixed %d cores", cores),
		fmt.Sprintf("injected capacity loss at full severity: %.0f%%", 100*base.LossBound(cores)))
	for _, v := range s.Variants() {
		healthy, ok := s.Get(v, 0)
		if !ok || healthy.PerCore <= 0 {
			continue
		}
		for _, sev := range severities[1:] {
			p, ok := s.Get(v, sev)
			if !ok {
				continue
			}
			floor := gracefulFloor(base.Scale(float64(sev)/100), cores, healthy.PerCore)
			s.Notes = append(s.Notes, fmt.Sprintf(
				"  %-6s @%3d%%: retention %.2f (graceful floor %.2f), %.3f retries/op",
				v, sev, p.PerCore/healthy.PerCore, floor, p.Retries))
		}
	}
	return s
}

// degradePacketsPerOp bounds memcached's client-visible packets per
// operation (request, response, protocol acks) for the graceful floor.
const degradePacketsPerOp = 6

// gracefulFloor is the graceful-degradation contract the degrade tests
// assert: the fraction of healthy per-core throughput a run under the
// scaled spec must retain. Two multiplicative terms: removed hardware
// capacity costs at most its own share (fault.LossBound), and every
// dropped packet of a closed-loop client costs at most ~two base retry
// backoffs of wall clock (doubling on the rare consecutive losses). A
// system below the floor collapsed — deadlocked, livelocked, or cascading
// — rather than degraded.
func gracefulFloor(scaled *fault.Spec, cores int, healthyPerCore float64) float64 {
	capLoss := scaled.LossBound(cores)
	drop, dup := scaled.NetProbs()
	// Healthy per-op wall cycles on one core, from the measured baseline.
	opCycles := topo.CyclesPerSec() / healthyPerCore
	// Both terms are rounded before the sum (x/4 compiles to x*0.25), so
	// no GOARCH fuses it and every GOARCH agrees.
	backoff := float64(fault.RetryBaseCycles)
	latency := 1 + degradePacketsPerOp*(float64(drop*2*backoff)+float64(dup*backoff/4))/opCycles
	return (1 - capLoss) / latency
}
