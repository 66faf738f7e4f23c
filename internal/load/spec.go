// Package load generates open-loop client traffic for the server
// workloads: arrivals at a configured offered rate independent of how fast
// the server completes them, the regime where overload and tail latency
// become visible. A per-core arrival-event heap over user cohorts scales
// the model to millions of simulated users without one proc per user; a
// userspace-netem-style link shaper adds per-connection latency, jitter,
// loss, and bandwidth delay on both request and response paths; clients
// enforce timeouts with the fault package's capped-exponential retransmit
// policy so retry storms are representable; and a bounded-accept-queue
// shedding policy turns the server's overload response into a variant
// knob. Per-request sojourn times land in deterministic log-bucketed
// histograms (hist.go).
//
// The three spec types (ArrivalSpec, LinkSpec, ShedSpec) follow
// fault.Spec's contract: Parse accepts a human-written string, String
// renders the canonical form, and parsing a canonical form round-trips —
// the property the sweep-point cache key relies on.
package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/fprint"
	"repro/internal/topo"
)

// DefaultUsers is the simulated user population an arrival spec aggregates
// when none is given: each of a core's cohorts stands in for its share of
// these users' independent think times.
const DefaultUsers = 1_000_000

// DefaultAlpha is the bounded-Pareto shape for "pareto" arrivals when none
// is given: heavy-tailed (infinite variance) but with a finite mean, the
// classic bursty-traffic regime.
const DefaultAlpha = 1.5

// ArrivalSpec describes the open-loop arrival process.
type ArrivalSpec struct {
	// Process is "poisson" (memoryless aggregate arrivals) or "pareto"
	// (heavy-tailed per-cohort think times: bursts and lulls).
	Process string
	// Users is the simulated user population the cohorts aggregate.
	Users int64
	// Alpha is the Pareto shape (> 1 so the mean exists); 0 for poisson.
	Alpha float64
}

// ParseArrival parses an arrival spec. Grammar:
//
//	poisson[:users=N]
//	pareto[:alpha=A][,users=N]
//
// "" and "none" mean no open-loop arrivals (closed-loop run) and return
// nil. Defaults: users=1000000, alpha=1.5.
func ParseArrival(s string) (*ArrivalSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	proc, rest, _ := strings.Cut(s, ":")
	a := &ArrivalSpec{Process: proc, Users: DefaultUsers}
	switch proc {
	case "poisson":
	case "pareto":
		a.Alpha = DefaultAlpha
	default:
		return nil, fmt.Errorf("load: arrival %q: unknown process %q (want poisson[:users=N] or pareto:alpha=A,users=N)", s, proc)
	}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("load: arrival %q: %q: want key=value (users=N or alpha=A)", s, part)
			}
			switch key {
			case "users":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("load: arrival %q: bad users %q (want a positive integer)", s, val)
				}
				a.Users = n
			case "alpha":
				if proc != "pareto" {
					return nil, fmt.Errorf("load: arrival %q: alpha only applies to pareto", s)
				}
				f, err := parseFloat(val)
				if err != nil || f <= 1 || f > 10 {
					return nil, fmt.Errorf("load: arrival %q: bad alpha %q (want a shape in (1,10]: the mean must exist)", s, val)
				}
				a.Alpha = f
			default:
				return nil, fmt.Errorf("load: arrival %q: unknown key %q (want users or alpha)", s, key)
			}
		}
	}
	return a, nil
}

// String renders the canonical form ("none" for nil): every field
// explicit, so equal specs render identically for the cache key.
func (a *ArrivalSpec) String() string {
	if a == nil {
		return "none"
	}
	if a.Process == "pareto" {
		return fmt.Sprintf("pareto:alpha=%s,users=%d", trimFloat(a.Alpha), a.Users)
	}
	return fmt.Sprintf("poisson:users=%d", a.Users)
}

// LinkSpec is the client-side link shaper: per-connection latency, jitter,
// loss, and bandwidth in the spirit of a userspace netem qdisc. All
// delays are paid by idling the client, never by occupying a server core.
type LinkSpec struct {
	// RTTCycles is the round-trip propagation delay; each direction pays
	// half.
	RTTCycles int64
	// JitterCycles is the full-RTT jitter half-range (rtt=20ms±5 keeps the
	// sampled RTT in [15ms, 25ms]); each direction draws half.
	JitterCycles int64
	// Loss is the per-transmission request-loss probability in [0,1); a
	// lost request is retransmitted after the client's capped-exponential
	// timeout (fault.Backoff), bounded by the retry budget.
	Loss float64
	// BitsPerSec is the serialization bandwidth (0 = infinite).
	BitsPerSec float64
}

// ParseLink parses a link-shaping spec: comma-separated key=value fields
//
//	rtt=20ms±5     propagation RTT with optional ± jitter (same unit,
//	               or its own: rtt=20ms±500us; "+-" works for ±)
//	loss=0.1%      request-loss probability (percent or 0..1 fraction)
//	bw=10mbit      serialization bandwidth (bit, kbit, mbit, gbit suffix)
//
// in any order. "" and "none" mean an ideal link and return nil.
func ParseLink(s string) (*LinkSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	l := &LinkSpec{}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("load: link %q: %q: want key=value (rtt=20ms±5, loss=0.1%%, bw=10mbit)", s, part)
		}
		switch key {
		case "rtt":
			base := strings.ReplaceAll(val, "+-", "±")
			rttS, jitS, hasJit := strings.Cut(base, "±")
			rtt, unit, err := parseCycles(rttS, "")
			if err != nil {
				return nil, fmt.Errorf("load: link %q: bad rtt %q (want e.g. 20ms, 150us, 20ms±5)", s, val)
			}
			l.RTTCycles = rtt
			if hasJit {
				jit, _, err := parseCycles(jitS, unit)
				if err != nil {
					return nil, fmt.Errorf("load: link %q: bad jitter %q (want e.g. 5, 5ms, 500us)", s, jitS)
				}
				l.JitterCycles = jit
			}
			if l.JitterCycles > l.RTTCycles {
				return nil, fmt.Errorf("load: link %q: jitter exceeds rtt (the sampled delay would go negative)", s)
			}
		case "loss":
			p, err := parseProb(val)
			if err != nil || p >= 1 {
				return nil, fmt.Errorf("load: link %q: bad loss %q (want a probability below 1: N%% or 0..1)", s, val)
			}
			l.Loss = p
		case "bw":
			bps, err := parseBits(val)
			if err != nil {
				return nil, fmt.Errorf("load: link %q: bad bw %q (want e.g. 10mbit, 1gbit, 500kbit)", s, val)
			}
			l.BitsPerSec = bps
		default:
			return nil, fmt.Errorf("load: link %q: unknown key %q (want rtt, loss, or bw)", s, key)
		}
	}
	if l.RTTCycles == 0 && l.JitterCycles == 0 && l.Loss == 0 && l.BitsPerSec == 0 {
		return nil, nil // an all-zero shaper is the ideal link
	}
	return l, nil
}

// String renders the canonical form: fields in rtt,loss,bw order, zero
// fields omitted, "none" for nil.
func (l *LinkSpec) String() string {
	if l == nil {
		return "none"
	}
	var parts []string
	if l.RTTCycles > 0 || l.JitterCycles > 0 {
		p := "rtt=" + durString(l.RTTCycles)
		if l.JitterCycles > 0 {
			p += "±" + durString(l.JitterCycles)
		}
		parts = append(parts, p)
	}
	if l.Loss > 0 {
		parts = append(parts, "loss="+probString(l.Loss))
	}
	if l.BitsPerSec > 0 {
		parts = append(parts, "bw="+bitsString(l.BitsPerSec))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// DefaultShedDelayCycles is the queueing-delay budget of the default
// delay-bounded admission policy: a quarter of the client's first
// retransmission timeout, so an admitted request is answered before its
// client ever retransmits even when overload inflates actual service
// time well past the calibrated estimate the bound is converted with
// (shed processing and generator interference share the server core).
// Bounding *delay* rather than queue length is what makes the policy
// portable across core counts and apps — 32 queued requests is a fine
// bound when service takes 3us and a retry-storm trigger when
// contention pushes service to 11us.
const DefaultShedDelayCycles = fault.RetryBaseCycles / 4

// ShedSpec is the server's admission-control policy for open-loop runs.
// At most one of QueueLimit and DelayCycles is set.
type ShedSpec struct {
	// QueueLimit bounds the accept queue by count: a request arriving
	// with this many already waiting is shed at the driver level for a
	// small fixed cost instead of queueing.
	QueueLimit int
	// DelayCycles bounds the accept queue by expected queueing delay:
	// the driver converts it to a count using the run's calibrated
	// per-request service time.
	DelayCycles int64
}

// ParseShed parses a shedding spec: "fifo" (unbounded queue, the default;
// "" and "none" are synonyms), "qlen=N" (accept queue bounded by count),
// or "delay=100us" (accept queue bounded by expected queueing delay).
// fifo parses to nil.
func ParseShed(s string) (*ShedSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" || s == "fifo" {
		return nil, nil
	}
	if val, ok := strings.CutPrefix(s, "qlen="); ok {
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("load: shed %q: bad queue length %q (want a positive integer)", s, val)
		}
		return &ShedSpec{QueueLimit: n}, nil
	}
	if val, ok := strings.CutPrefix(s, "delay="); ok {
		d, _, err := parseCycles(val, "")
		if err != nil || d < 1 {
			return nil, fmt.Errorf("load: shed %q: bad delay %q (want e.g. 100us, 1ms)", s, val)
		}
		return &ShedSpec{DelayCycles: d}, nil
	}
	return nil, fmt.Errorf("load: shed %q: want fifo (unbounded queue), qlen=N (bounded accept queue), or delay=100us (delay-bounded accept queue)", s)
}

// String renders the canonical form: "fifo" for nil (the default policy
// is a real policy, not an absence), "qlen=N" or "delay=DUR" otherwise.
func (s *ShedSpec) String() string {
	switch {
	case s == nil || (s.QueueLimit <= 0 && s.DelayCycles <= 0):
		return "fifo"
	case s.DelayCycles > 0:
		return "delay=" + durString(s.DelayCycles)
	default:
		return fmt.Sprintf("qlen=%d", s.QueueLimit)
	}
}

// limitFor returns the accept-queue bound (0 = unbounded) given the
// run's calibrated per-request service cycles.
func (s *ShedSpec) limitFor(serviceCycles int64) int {
	switch {
	case s == nil:
		return 0
	case s.DelayCycles > 0:
		if serviceCycles < 1 {
			serviceCycles = 1
		}
		n := int(s.DelayCycles / serviceCycles)
		if n < 1 {
			n = 1
		}
		return n
	default:
		return s.QueueLimit
	}
}

// ---- shared parsing/rendering helpers ----

// maxDurationCycles caps every spec duration at one simulated day. Up to
// it, a duration's canonical form parses back to the same cycle count;
// far beyond it float rounding breaks that, and past 2^63 cycles the
// count no longer fits an int64.
const maxDurationCycles = 86400 * topo.ClockHz

// parseCycles parses <float><unit> into clock cycles, where unit is
// s, ms, or us. defUnit, when non-empty, lets a bare number inherit the
// unit of a preceding value ("20ms±5" = ±5ms); the chosen unit is
// returned so callers can thread it.
func parseCycles(s, defUnit string) (int64, string, error) {
	unit := defUnit
	switch {
	case strings.HasSuffix(s, "us"):
		unit = "us"
	case strings.HasSuffix(s, "ms"):
		unit = "ms"
	case strings.HasSuffix(s, "s"):
		unit = "s"
	default:
		if defUnit == "" {
			return 0, "", fmt.Errorf("bad duration %q (want e.g. 20ms, 150us, 0.5s)", s)
		}
	}
	num := strings.TrimSuffix(s, unit)
	v, err := parseFloat(num)
	mul := map[string]float64{"s": 1, "ms": 1e-3, "us": 1e-6}[unit]
	// Round, don't truncate: 150us must come back as exactly 150us.
	c := math.Round(v * mul * float64(topo.ClockHz))
	if err != nil || v < 0 || c > maxDurationCycles {
		return 0, "", fmt.Errorf("bad duration %q", s)
	}
	return int64(c), unit, nil
}

// durString renders cycles as the canonical duration: integral
// milliseconds as "Nms", anything else in microseconds.
func durString(cycles int64) string {
	us := float64(cycles) * 1e6 / float64(topo.ClockHz)
	if ms := us / 1000; ms == math.Trunc(ms) && ms != 0 {
		return trimFloat(ms) + "ms"
	}
	return trimFloat(us) + "us"
}

// parseProb accepts "0.1%" or a bare fraction in [0,1].
func parseProb(s string) (float64, error) {
	if t, ok := strings.CutSuffix(s, "%"); ok {
		p, err := parseFloat(t)
		if err != nil || p < 0 || p > 100 {
			return 0, fmt.Errorf("bad percentage %q", s)
		}
		return p / 100, nil
	}
	f, err := parseFloat(s)
	if err != nil || f < 0 || f > 1 {
		return 0, fmt.Errorf("bad probability %q (want N%% or 0..1)", s)
	}
	return f, nil
}

// probString renders a probability as a percentage, or as a bare
// fraction when the percentage would not parse back to exactly p.
func probString(p float64) string {
	pct := trimFloat(p * 100)
	if q, err := parseProb(pct + "%"); err == nil && q == p {
		return pct + "%"
	}
	return trimFloat(p)
}

// parseBits parses <float><bit|kbit|mbit|gbit> into bits per second.
func parseBits(s string) (float64, error) {
	unit, mul := "", 0.0
	switch {
	case strings.HasSuffix(s, "gbit"):
		unit, mul = "gbit", 1e9
	case strings.HasSuffix(s, "mbit"):
		unit, mul = "mbit", 1e6
	case strings.HasSuffix(s, "kbit"):
		unit, mul = "kbit", 1e3
	case strings.HasSuffix(s, "bit"):
		unit, mul = "bit", 1
	default:
		return 0, fmt.Errorf("bad bandwidth %q", s)
	}
	v, err := parseFloat(strings.TrimSuffix(s, unit))
	if err != nil || v <= 0 || math.IsInf(v*mul, 0) {
		return 0, fmt.Errorf("bad bandwidth %q", s)
	}
	return v * mul, nil
}

// bitsString renders bits/sec in the largest unit, matching parseBits,
// or in bits when the scaled value would not parse back to exactly bps.
func bitsString(bps float64) string {
	var s string
	switch {
	case bps >= 1e9:
		s = trimFloat(bps/1e9) + "gbit"
	case bps >= 1e6:
		s = trimFloat(bps/1e6) + "mbit"
	case bps >= 1e3:
		s = trimFloat(bps/1e3) + "kbit"
	default:
		return trimFloat(bps) + "bit"
	}
	if v, err := parseBits(s); err != nil || v != bps {
		return trimFloat(bps) + "bit"
	}
	return s
}

// parseFloat is strconv.ParseFloat restricted to finite values. NaN
// passes every range comparison, and neither NaN nor an infinity renders
// to a canonical form that parses back to the same spec.
func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("non-finite number %q", s)
	}
	return f, err
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Fingerprint covers the open-loop client model's behavioral constants:
// the cohort fan-out, histogram geometry, default budgets, and spec
// defaults. The harness registers this as the "load" cost domain, so
// cached open-loop points invalidate when the client model is retuned
// while closed-loop experiments keep replaying.
var fingerprint = fprint.New("load").
	C("Cohorts", Cohorts).
	C("histSubBits", histSubBits).
	C("DefaultUsers", DefaultUsers).
	C("DefaultAlpha", DefaultAlpha).
	C("maxGapFactor", maxGapFactor).
	C("DefaultRequestsPerCore", DefaultRequestsPerCore).
	C("DefaultCalibRequestsPerCore", DefaultCalibRequestsPerCore).
	C("DefaultShedDelayCycles", DefaultShedDelayCycles).
	Sum()

// Fingerprint returns the canonical fingerprint of the load cost domain.
func Fingerprint() string { return fingerprint }
