// Package fault defines deterministic, seedable hardware-fault plans for
// the simulated 48-core machine: degraded or dead HyperTransport links,
// throttled DRAM controllers, offlined cores, and NIC packet drop or
// duplication, each injected at a simulated timestamp. A Spec is the
// parsed, canonical description; Compile validates it against a concrete
// machine and produces the Plan the kernel applies at boot and during the
// run. Faults never introduce randomness of their own beyond the engine's
// seeded PRNG, so a faulted run is exactly as reproducible as a clean one.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fprint"
	"repro/internal/topo"
)

// Kind is the class of one injected fault event.
type Kind int

const (
	// KindLink degrades the HT link joining chips A and B to Frac of its
	// rated bandwidth; Frac == 0 removes the link and traffic reroutes.
	KindLink Kind = iota
	// KindDRAM throttles chip A's memory controller to Frac of its rate.
	KindDRAM
	// KindCore offlines core A (boot-time only: the machine comes up with
	// the core disabled, mirroring §5.1's "other cores entirely disabled").
	KindCore
	// KindDrop sets the NIC packet-drop probability to Frac.
	KindDrop
	// KindDup sets the NIC packet-duplication probability to Frac.
	KindDup
)

func (k Kind) String() string {
	switch k {
	case KindLink:
		return "link"
	case KindDRAM:
		return "dram"
	case KindCore:
		return "core"
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one injected fault.
type Event struct {
	Kind Kind
	// A and B identify the target: the two chips a link joins (KindLink),
	// the chip (KindDRAM), or the core (KindCore). B is unused otherwise.
	A, B int
	// Frac is the remaining capacity fraction for link/dram events (0 for
	// a dead link), or the probability for drop/dup events.
	Frac float64
	// At is the injection time in seconds of simulated time; 0 applies the
	// event at boot.
	At float64
}

// Client retry policy for NIC packet loss, shared by every simulated
// transport: a lost packet is noticed at a retransmission timeout that
// doubles per attempt up to a cap, and a request is abandoned to its final
// forced delivery after RetryMaxAttempts sends — the closed-loop workloads
// never wedge on an unlucky PRNG streak, they just pay bounded timeouts.
// These constants are part of Fingerprint(): retuning them invalidates
// cached faulted points.
const (
	// RetryBaseCycles is the initial retransmission timeout (~200us).
	RetryBaseCycles = 480_000
	// RetryCapCycles bounds the exponential backoff (~2ms).
	RetryCapCycles = 4_800_000
	// RetryMaxAttempts is the per-request send budget; the last attempt
	// always delivers, bounding worst-case latency and retry counts.
	RetryMaxAttempts = 6
)

// Backoff returns the retransmission timeout preceding retry n (n = 0 for
// the first retry): RetryBaseCycles doubling per retry, capped.
func Backoff(n int) int64 {
	b := int64(RetryBaseCycles)
	for i := 0; i < n; i++ {
		b *= 2
		if b >= RetryCapCycles {
			return RetryCapCycles
		}
	}
	if b > RetryCapCycles {
		b = RetryCapCycles
	}
	return b
}

// NetFaults is the live NIC fault state a network stack consults per
// packet. The kernel owns one instance; timed events mutate it mid-run
// (engine-serialized, like all simulated state).
type NetFaults struct {
	// Drop is the probability a NIC packet is lost and must be resent.
	Drop float64
	// Dup is the probability an already-delivered packet arrives again.
	Dup float64
}

// Spec is a parsed fault specification: a set of events in canonical
// order. The zero value (or nil) means no faults.
type Spec struct {
	Events []Event
}

// Parse parses a comma-separated fault spec. Grammar, one event per
// element:
//
//	link:A-B@P%   degrade the HT link joining adjacent chips A and B to P%
//	              of its bandwidth; link:A-B@0% (or @down) removes it and
//	              traffic reroutes around the gap
//	dram:C@P%     throttle chip C's memory controller to P% of its rate
//	core:N@off    offline core N (boot-time only)
//	drop:P        set NIC packet-drop probability to P (0..1)
//	dup:P         set NIC packet-duplication probability to P (0..1)
//
// Any event may carry a trailing @t=<duration> (e.g. @t=2ms, @t=0.5s,
// @t=300us) to inject it at that simulated time instead of at boot.
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		ev, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		spec.Events = append(spec.Events, ev)
	}
	spec.canonicalize()
	return spec, nil
}

func parseEvent(part string) (Event, error) {
	var ev Event
	kind, rest, ok := strings.Cut(part, ":")
	if !ok {
		return ev, fmt.Errorf("fault: %q: want kind:target[@value]", part)
	}
	// Split off a trailing @t=... injection time first.
	if i := strings.LastIndex(rest, "@t="); i >= 0 {
		at, err := parseDuration(rest[i+3:])
		if err != nil {
			return ev, fmt.Errorf("fault: %q: %v", part, err)
		}
		ev.At = at
		rest = rest[:i]
	}
	switch kind {
	case "link":
		target, val, ok := strings.Cut(rest, "@")
		if !ok {
			return ev, fmt.Errorf("fault: %q: want link:A-B@P%%", part)
		}
		a, b, ok := strings.Cut(target, "-")
		if !ok {
			return ev, fmt.Errorf("fault: %q: want link:A-B@P%%", part)
		}
		var err error
		if ev.A, err = parseID(a); err != nil {
			return ev, fmt.Errorf("fault: %q: bad chip %q", part, a)
		}
		if ev.B, err = parseID(b); err != nil {
			return ev, fmt.Errorf("fault: %q: bad chip %q", part, b)
		}
		if ev.Frac, err = parsePercent(val); err != nil {
			return ev, fmt.Errorf("fault: %q: %v", part, err)
		}
		ev.Kind = KindLink
	case "dram":
		target, val, ok := strings.Cut(rest, "@")
		if !ok {
			return ev, fmt.Errorf("fault: %q: want dram:C@P%%", part)
		}
		var err error
		if ev.A, err = parseID(target); err != nil {
			return ev, fmt.Errorf("fault: %q: bad chip %q", part, target)
		}
		if ev.Frac, err = parsePercent(val); err != nil {
			return ev, fmt.Errorf("fault: %q: %v", part, err)
		}
		if ev.Frac <= 0 {
			return ev, fmt.Errorf("fault: %q: a controller cannot go to 0%% (its chip's DRAM would be unreachable); use a small percentage", part)
		}
		ev.Kind = KindDRAM
	case "core":
		target, val, ok := strings.Cut(rest, "@")
		if !ok || val != "off" {
			return ev, fmt.Errorf("fault: %q: want core:N@off", part)
		}
		var err error
		if ev.A, err = parseID(target); err != nil {
			return ev, fmt.Errorf("fault: %q: bad core %q", part, target)
		}
		ev.Kind = KindCore
	case "drop", "dup":
		p, ok := parseIn(rest, 0, 1)
		if !ok {
			return ev, fmt.Errorf("fault: %q: want a probability in [0,1]", part)
		}
		ev.Frac = p
		ev.Kind = KindDrop
		if kind == "dup" {
			ev.Kind = KindDup
		}
	default:
		return ev, fmt.Errorf("fault: %q: unknown kind %q (want link, dram, core, drop, or dup)", part, kind)
	}
	return ev, nil
}

// parseID parses a chip or core number. Negative numbers are rejected
// here rather than at Compile: String renders "link:-1-0", which the
// A-B split cannot parse back, so a spec holding one would not round-trip.
func parseID(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative id %d", n)
	}
	return n, err
}

// parsePercent accepts "50%", "down" (0), or a bare fraction like "0.5".
func parsePercent(s string) (float64, error) {
	if s == "down" {
		return 0, nil
	}
	if t, ok := strings.CutSuffix(s, "%"); ok {
		p, ok := parseIn(t, 0, 100)
		if !ok {
			return 0, fmt.Errorf("bad percentage %q", s)
		}
		return p / 100, nil
	}
	f, ok := parseIn(s, 0, 1)
	if !ok {
		return 0, fmt.Errorf("bad fraction %q (want N%% or 0..1)", s)
	}
	return f, nil
}

// maxAtSeconds caps an @t= injection time at one simulated day, the
// bound load's specs put on every duration: far beyond it the time no
// longer converts to a cycle count.
const maxAtSeconds = 86400

// parseDuration accepts <float>(s|ms|us) up to maxAtSeconds and returns
// seconds.
func parseDuration(s string) (float64, error) {
	unit, mul := "", 0.0
	switch {
	case strings.HasSuffix(s, "us"):
		unit, mul = "us", 1e-6
	case strings.HasSuffix(s, "ms"):
		unit, mul = "ms", 1e-3
	case strings.HasSuffix(s, "s"):
		unit, mul = "s", 1
	default:
		return 0, fmt.Errorf("bad duration %q (want e.g. 2ms, 0.5s, 300us)", s)
	}
	v, ok := parseIn(strings.TrimSuffix(s, unit), 0, math.MaxFloat64)
	if !ok || v*mul > maxAtSeconds {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return v * mul, nil
}

// parseIn parses a number in [lo,hi]. The comparison is written so that
// NaN, which fails every comparison, is out of range too.
func parseIn(s string, lo, hi float64) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && f >= lo && f <= hi
}

// canonicalize sorts events into the canonical order String renders:
// by time, then kind, then target. Link ends of the default ring are
// normalized so the ring link index is A's; any other pair sorts A < B.
// Canonicalization is machine-independent — the same spec string keys the
// sweep cache no matter which machine it later compiles against.
func (s *Spec) canonicalize() {
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Kind == KindLink {
			// Normalize so A is the default ring's link index: link l joins
			// chips l and (l+1) mod Chips. The wrap pair (Chips-1, 0) keeps
			// A = Chips-1. Pairs outside the default ring (non-adjacent, or
			// chips beyond it — valid on other machines) sort ascending.
			if ev.B == (ev.A+1)%topo.Chips {
				// already normalized
			} else if ev.A == (ev.B+1)%topo.Chips {
				ev.A, ev.B = ev.B, ev.A
			} else if ev.B < ev.A {
				ev.A, ev.B = ev.B, ev.A
			}
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.Frac < b.Frac
	})
}

// String renders the spec in canonical form: parsing the result yields an
// equal spec, and equal specs render identically — the property the sweep
// cache key relies on.
func (s *Spec) String() string {
	if s == nil || len(s.Events) == 0 {
		return "none"
	}
	var parts []string
	for _, ev := range s.Events {
		var p string
		switch ev.Kind {
		case KindLink:
			p = fmt.Sprintf("link:%d-%d@%s%%", ev.A, ev.B, trimFloat(ev.Frac*100))
		case KindDRAM:
			p = fmt.Sprintf("dram:%d@%s%%", ev.A, trimFloat(ev.Frac*100))
		case KindCore:
			p = fmt.Sprintf("core:%d@off", ev.A)
		case KindDrop:
			p = "drop:" + trimFloat(ev.Frac)
		case KindDup:
			p = "dup:" + trimFloat(ev.Frac)
		}
		if ev.At > 0 {
			p += fmt.Sprintf("@t=%ss", trimFloat(ev.At))
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Scale returns a copy of the spec with every fault's severity scaled by
// f in [0,1]: link/dram events keep 1-f·(1-Frac) of their capacity and
// drop/dup probabilities become f·Frac, so Scale(0) is a clean machine,
// Scale(1) is the full spec, and intermediate values interpolate — the
// x-axis of the degrade experiment. Core events are all-or-nothing: they
// survive only at f == 1. Injection times are preserved.
func (s *Spec) Scale(f float64) *Spec {
	out := &Spec{}
	if s == nil || f <= 0 {
		return out
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case KindLink, KindDRAM:
			ev.Frac = 1 - float64(f*(1-ev.Frac)) // rounded: never fused, so every GOARCH agrees
			if ev.Frac < 1 {
				out.Events = append(out.Events, ev)
			}
		case KindDrop, KindDup:
			ev.Frac *= f
			if ev.Frac > 0 {
				out.Events = append(out.Events, ev)
			}
		case KindCore:
			if f >= 1 {
				out.Events = append(out.Events, ev)
			}
		}
	}
	out.canonicalize()
	return out
}

// LossBound returns the spec's hardware capacity loss for a run of
// nCores: an upper bound on the fraction of clean-machine *capacity* the
// faults remove. It combines the largest single capacity loss among
// link/dram events (a degraded resource that happens to be the bottleneck
// costs at most its own loss) with the fraction of cores offlined.
// Packet drop/duplication is deliberately excluded — it costs latency
// (retry backoffs), not capacity; closed-loop clients pay that separately
// (see the degrade experiment's graceful floor).
func (s *Spec) LossBound(nCores int) float64 {
	if s == nil {
		return 0
	}
	var worstCap float64
	offline := map[int]bool{}
	for _, ev := range s.Events {
		switch ev.Kind {
		case KindLink, KindDRAM:
			if loss := 1 - ev.Frac; loss > worstCap {
				worstCap = loss
			}
		case KindCore:
			if ev.A < nCores {
				offline[ev.A] = true
			}
		}
	}
	bound := worstCap + float64(len(offline))/float64(nCores)
	// Leave headroom: a fully dead resource never costs quite 100%.
	if bound > 0.95 {
		bound = 0.95
	}
	return bound
}

// NetProbs returns the spec's packet drop and duplication probabilities.
// When an event kind appears more than once (e.g. a boot value and a
// timed change), the largest wins — callers use these for worst-case
// latency bounds.
func (s *Spec) NetProbs() (drop, dup float64) {
	for _, ev := range s.Events {
		switch ev.Kind {
		case KindDrop:
			if ev.Frac > drop {
				drop = ev.Frac
			}
		case KindDup:
			if ev.Frac > dup {
				dup = ev.Frac
			}
		}
	}
	return drop, dup
}

// Plan is a Spec compiled against a concrete machine: validated, split
// into the boot-time state and the timed injection steps, with the route
// tables for every link-death epoch precomputed.
type Plan struct {
	// Spec is the source specification (canonical).
	Spec *Spec
	// Machine is the machine the plan was compiled against.
	Machine *topo.Machine
	// Offline marks cores the machine boots with disabled, indexed by
	// enabled core number. Nil (a nil spec) means every core is online;
	// use CoreOffline for the bounds-checked lookup.
	Offline []bool
	// Boot are the events applied before the workload starts (At == 0),
	// excluding core events (already folded into Offline).
	Boot []Event
	// BootRoutes is the route table in effect at boot: the default table,
	// or one routing around links dead at t=0. Nil means the default.
	BootRoutes *topo.RouteTable
	// Steps are the timed injections, ascending by time.
	Steps []Step
}

// Step is one timed injection: the events that fire at AtCycles and, when
// a link died at this step, the route table that takes effect with them.
type Step struct {
	AtCycles int64
	Events   []Event
	// Routes is non-nil when this step's link deaths change the topology;
	// it routes around every link dead at or before this step.
	Routes *topo.RouteTable
}

// CompileFor validates the spec against machine m with nCores enabled
// cores and returns the executable plan. Errors: a link event naming
// chips not joined by one of m's links, an out-of-range chip or core, a
// timed core event, every enabled core offlined, or link deaths that
// partition the interconnect.
func (s *Spec) CompileFor(m *topo.Machine, nCores int) (*Plan, error) {
	if nCores < 1 || nCores > m.MaxCores() {
		return nil, fmt.Errorf("fault: core count %d out of range [1,%d]", nCores, m.MaxCores())
	}
	p := &Plan{Spec: s, Machine: m}
	if s == nil {
		return p, nil
	}
	p.Offline = make([]bool, nCores)
	deadAtBoot := map[int]bool{}
	timed := map[float64][]Event{}
	online := nCores
	for _, ev := range s.Events {
		switch ev.Kind {
		case KindLink:
			if _, err := linkIndexFor(m, ev.A, ev.B); err != nil {
				return nil, err
			}
		case KindDRAM:
			if ev.A < 0 || ev.A >= m.Chips {
				return nil, fmt.Errorf("fault: dram chip %d out of range [0,%d)", ev.A, m.Chips)
			}
			if ev.Frac <= 0 {
				return nil, fmt.Errorf("fault: dram:%d cannot be throttled to 0", ev.A)
			}
		case KindCore:
			if ev.A < 0 || ev.A >= m.MaxCores() {
				return nil, fmt.Errorf("fault: core %d out of range [0,%d)", ev.A, m.MaxCores())
			}
			if ev.At > 0 {
				return nil, fmt.Errorf("fault: core:%d@off must be a boot-time event (no @t=)", ev.A)
			}
			if ev.A < nCores && !p.Offline[ev.A] {
				p.Offline[ev.A] = true
				online--
			}
			continue // folded into Offline, not replayed
		case KindDrop, KindDup:
			if ev.Frac < 0 || ev.Frac > 1 {
				return nil, fmt.Errorf("fault: %s probability %g out of [0,1]", ev.Kind, ev.Frac)
			}
		}
		if ev.At == 0 {
			p.Boot = append(p.Boot, ev)
			if ev.Kind == KindLink && ev.Frac == 0 {
				l, _ := linkIndexFor(m, ev.A, ev.B)
				deadAtBoot[l] = true
			}
		} else {
			timed[ev.At] = append(timed[ev.At], ev)
		}
	}
	if online < 1 {
		return nil, fmt.Errorf("fault: spec offlines all %d enabled cores", nCores)
	}
	dead := sortedKeys(deadAtBoot)
	if len(dead) > 0 {
		rt, err := m.NewRouteTable(dead)
		if err != nil {
			return nil, err
		}
		p.BootRoutes = rt
	}
	// Timed steps, ascending; each step's route table covers the
	// cumulative set of dead links up to and including it.
	var times []float64
	for at := range timed {
		times = append(times, at)
	}
	sort.Float64s(times)
	cumDead := map[int]bool{}
	for l := range deadAtBoot {
		cumDead[l] = true
	}
	for _, at := range times {
		step := Step{AtCycles: topo.SecToCycles(at), Events: timed[at]}
		changed := false
		for _, ev := range timed[at] {
			if ev.Kind == KindLink && ev.Frac == 0 {
				l, _ := linkIndexFor(m, ev.A, ev.B)
				if !cumDead[l] {
					cumDead[l] = true
					changed = true
				}
			}
		}
		if changed {
			rt, err := m.NewRouteTable(sortedKeys(cumDead))
			if err != nil {
				return nil, fmt.Errorf("fault: at t=%gs: %w", at, err)
			}
			step.Routes = rt
		}
		p.Steps = append(p.Steps, step)
	}
	return p, nil
}

// CoreOffline reports whether the plan boots with enabled core c disabled.
func (p *Plan) CoreOffline(c int) bool {
	return p != nil && c >= 0 && c < len(p.Offline) && p.Offline[c]
}

// ValidateFor compiles the spec against all of machine m, discarding the
// plan: the cheap early check callers run before sweeping.
func (s *Spec) ValidateFor(m *topo.Machine) error {
	_, err := s.CompileFor(m, m.MaxCores())
	return err
}

// linkIndexFor returns the index of m's link joining chips a and b, or an
// error if they are not adjacent.
func linkIndexFor(m *topo.Machine, a, b int) (int, error) {
	if a < 0 || a >= m.Chips || b < 0 || b >= m.Chips {
		return 0, fmt.Errorf("fault: link chips %d-%d out of range [0,%d)", a, b, m.Chips)
	}
	l, ok := m.LinkBetween(a, b)
	if !ok {
		return 0, fmt.Errorf("fault: chips %d and %d are not joined by a link on machine %s", a, b, m.Name)
	}
	return l, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Fingerprint covers the fault machinery's behavioral constants: the
// retry/backoff policy every faulted network run depends on. The harness
// registers this as the "fault" cost domain, so faulted cached points
// invalidate when the policy is retuned while clean experiments keep
// replaying.
var fingerprint = fprint.New("fault").
	C("RetryBaseCycles", RetryBaseCycles).
	C("RetryCapCycles", RetryCapCycles).
	C("RetryMaxAttempts", RetryMaxAttempts).
	Sum()

// Fingerprint returns the canonical fingerprint of the fault cost domain.
func Fingerprint() string { return fingerprint }

// IsZero reports whether the spec injects nothing.
func (s *Spec) IsZero() bool { return s == nil || len(s.Events) == 0 }
