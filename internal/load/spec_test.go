package load

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topo"
)

// ms converts milliseconds to cycles for readable expectations.
func ms(n float64) int64 { return int64(n * 1e-3 * float64(topo.ClockHz)) }

func TestParseArrivalCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical form; "" means parse error expected
	}{
		{"", "none"},
		{"none", "none"},
		{"poisson", "poisson:users=1000000"},
		{"poisson:users=500", "poisson:users=500"},
		{"pareto", "pareto:alpha=1.5,users=1000000"},
		{"pareto:alpha=2", "pareto:alpha=2,users=1000000"},
		{"pareto:alpha=1.1,users=42", "pareto:alpha=1.1,users=42"},
		{"pareto:users=7", "pareto:alpha=1.5,users=7"},
		{"  poisson  ", "poisson:users=1000000"},
		{"uniform", ""},
		{"poisson:alpha=2", ""},   // alpha is pareto-only
		{"pareto:alpha=1", ""},    // mean would not exist
		{"pareto:alpha=11", ""},   // out of range
		{"poisson:users=0", ""},   // not positive
		{"poisson:users=x", ""},   // not a number
		{"poisson:frobs=3", ""},   // unknown key
		{"poisson:users", ""},     // missing value
		{"pareto:alpha=1.5,", ""}, // trailing empty field
	}
	for _, c := range cases {
		a, err := ParseArrival(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseArrival(%q): want error, got %v", c.in, a)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseArrival(%q): %v", c.in, err)
			continue
		}
		if got := a.String(); got != c.want {
			t.Errorf("ParseArrival(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseLinkCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "none"},
		{"none", "none"},
		{"rtt=20ms", "rtt=20ms"},
		{"rtt=20ms±5", "rtt=20ms±5ms"},
		{"rtt=20ms+-5", "rtt=20ms±5ms"},      // ASCII spelling of ±
		{"rtt=20ms±500us", "rtt=20ms±500us"}, // jitter with its own unit
		{"rtt=150us", "rtt=150us"},
		{"rtt=0.5s", "rtt=500ms"},
		{"loss=0.1%", "loss=0.1%"},
		{"loss=0.001", "loss=0.1%"}, // fraction and percent agree
		{"bw=10mbit", "bw=10mbit"},
		{"bw=1gbit", "bw=1gbit"},
		{"bw=500kbit", "bw=500kbit"},
		{"rtt=20ms,loss=1%,bw=10mbit", "rtt=20ms,loss=1%,bw=10mbit"},
		{"bw=10mbit,rtt=20ms", "rtt=20ms,bw=10mbit"}, // canonical order
		{"rtt=0ms", "none"},                          // all-zero is the ideal link
		{"rtt=20", ""},                               // missing unit
		{"rtt=20ms±25ms", ""},                        // jitter > rtt
		{"loss=150%", ""},
		{"loss=1.5", ""},
		{"bw=10", ""},
		{"mtu=9000", ""},                 // unknown key
		{"rtt", ""},                      // not key=value
		{"rtt=86400s", "rtt=8.64e+07ms"}, // the one-day cap
		{"rtt=86401s", ""},
		// Where the percentage or the scaled unit would not parse back to
		// the same value, the canonical form falls back to an exact one.
		{"loss=0.21426387258237492", "loss=0.21426387258237492"},
		{"bw=6.399648937177728e+299bit", "bw=6.399648937177728e+299bit"},
	}
	for _, c := range cases {
		l, err := ParseLink(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseLink(%q): want error, got %v", c.in, l)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseLink(%q): %v", c.in, err)
			continue
		}
		if got := l.String(); got != c.want {
			t.Errorf("ParseLink(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseShedCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "fifo"},
		{"none", "fifo"},
		{"fifo", "fifo"},
		{"qlen=1", "qlen=1"},
		{"qlen=32", "qlen=32"},
		{"delay=100us", "delay=100us"},
		{"delay=1ms", "delay=1ms"},
		{"qlen=0", ""},
		{"qlen=-3", ""},
		{"qlen=many", ""},
		{"delay=0us", ""},
		{"delay=5", ""}, // missing unit
		{"drop-tail", ""},
	}
	for _, c := range cases {
		sp, err := ParseShed(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseShed(%q): want error, got %v", c.in, sp)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShed(%q): %v", c.in, err)
			continue
		}
		if got := sp.String(); got != c.want {
			t.Errorf("ParseShed(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNonFiniteSpecsRejected pins that NaN, infinities and durations
// past the cap are rejected with the error naming the bad field. NaN
// passes every range comparison, so unchecked "loss=NaN%" parses to a
// spec rendering as "none", the ideal link's cache-key term.
func TestNonFiniteSpecsRejected(t *testing.T) {
	for _, c := range []struct {
		in, want string
		parse    func(string) error
	}{
		{"loss=NaN%", "bad loss", linkErr},
		{"loss=NaN", "bad loss", linkErr},
		{"bw=NaNmbit", "bad bw", linkErr},
		{"bw=Infmbit", "bad bw", linkErr},
		{"bw=1e308gbit", "bad bw", linkErr},
		{"rtt=20ms±NaN", "bad jitter", linkErr},
		{"rtt=1e300s", "bad rtt", linkErr},
		{"rtt=NaNms", "bad rtt", linkErr},
		{"pareto:alpha=NaN", "bad alpha", arrivalErr},
		{"delay=NaNus", "bad delay", shedErr},
		{"delay=1e300s", "bad delay", shedErr},
	} {
		if err := c.parse(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one containing %q", c.in, err, c.want)
		}
	}
}

func linkErr(s string) error    { _, err := ParseLink(s); return err }
func arrivalErr(s string) error { _, err := ParseArrival(s); return err }
func shedErr(s string) error    { _, err := ParseShed(s); return err }

// TestCanonicalRoundTrip pins the cache-key contract: parsing a canonical
// form yields the same canonical form, for every spec type.
func TestCanonicalRoundTrip(t *testing.T) {
	arrivals := []string{"none", "poisson:users=1000", "pareto:alpha=1.5,users=1000000"}
	for _, s := range arrivals {
		a, err := ParseArrival(s)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("arrival round-trip: %q -> %q", s, a.String())
		}
	}
	links := []string{"none", "rtt=20ms±5ms,loss=0.1%,bw=10mbit", "rtt=150us"}
	for _, s := range links {
		l, err := ParseLink(s)
		if err != nil {
			t.Fatalf("ParseLink(%q): %v", s, err)
		}
		if l.String() != s {
			t.Errorf("link round-trip: %q -> %q", s, l.String())
		}
	}
	sheds := []string{"fifo", "qlen=32", "delay=100us"}
	for _, s := range sheds {
		sp, err := ParseShed(s)
		if err != nil {
			t.Fatalf("ParseShed(%q): %v", s, err)
		}
		if sp.String() != s {
			t.Errorf("shed round-trip: %q -> %q", s, sp.String())
		}
	}
}

func TestParseLinkCycles(t *testing.T) {
	l, err := ParseLink("rtt=20ms±5")
	if err != nil {
		t.Fatal(err)
	}
	if l.RTTCycles != ms(20) || l.JitterCycles != ms(5) {
		t.Errorf("rtt=20ms±5: got rtt=%d jitter=%d, want %d, %d",
			l.RTTCycles, l.JitterCycles, ms(20), ms(5))
	}
}

func TestShedLimitFor(t *testing.T) {
	var nilSpec *ShedSpec
	if got := nilSpec.limitFor(1000); got != 0 {
		t.Errorf("nil spec limit = %d, want 0 (unbounded)", got)
	}
	if got := (&ShedSpec{QueueLimit: 32}).limitFor(1000); got != 32 {
		t.Errorf("qlen=32 limit = %d, want 32 (count bound ignores service time)", got)
	}
	d := &ShedSpec{DelayCycles: 120_000}
	if got := d.limitFor(12_000); got != 10 {
		t.Errorf("delay bound at 12k service = %d, want 10", got)
	}
	if got := d.limitFor(1_000_000); got != 1 {
		t.Errorf("delay bound slower than budget = %d, want floor of 1", got)
	}
	if got := d.limitFor(0); got <= 0 {
		t.Errorf("delay bound with zero estimate = %d, want positive", got)
	}
}

// TestShedErrorsListValidForms pins that a bad spec's error names every
// accepted form, so the CLI message built from it is actionable.
func TestShedErrorsListValidForms(t *testing.T) {
	_, err := ParseShed("tail-drop")
	if err == nil {
		t.Fatal("want error")
	}
	for _, form := range []string{"fifo", "qlen=", "delay="} {
		if !strings.Contains(err.Error(), form) {
			t.Errorf("shed error %q does not mention %q", err, form)
		}
	}
}

// TestDefaultShedDelayUnderRetransmit pins the relationship the default
// policy exists for: its delay budget leaves headroom below the client's
// first retransmission timeout, so a shedding server never triggers the
// retry storm it is trying to prevent.
func TestDefaultShedDelayUnderRetransmit(t *testing.T) {
	if DefaultShedDelayCycles*2 > fault.RetryBaseCycles {
		t.Errorf("default shed delay %d leaves less than 2x headroom under the first retransmit timeout %d",
			DefaultShedDelayCycles, fault.RetryBaseCycles)
	}
}

// checkCanonical checks the cache-key contract for one fuzz input: a spec
// parse accepts renders to a canonical form other than absent (the term
// for no spec), and that form parses back to an equal spec.
func checkCanonical[S interface {
	comparable
	String() string
}](t *testing.T, in string, parse func(string) (S, error), absent string) {
	t.Helper()
	var none S
	s, err := parse(in)
	if err != nil || s == none {
		return
	}
	canon := s.String()
	if canon == absent {
		t.Fatalf("%q parses to a spec that renders as %q, the term for no spec", in, absent)
	}
	again, err := parse(canon)
	if err != nil {
		t.Fatalf("%q parses, but its String %q does not: %v", in, canon, err)
	}
	if !reflect.DeepEqual(again, s) {
		t.Fatalf("%q renders %q, which reparses to %#v, not %#v", in, canon, again, s)
	}
}

// FuzzParseArrival, FuzzParseLink and FuzzParseShed check checkCanonical
// on arbitrary input.
func FuzzParseArrival(f *testing.F) {
	for _, seed := range []string{"", "none", "poisson", "poisson:users=500", "pareto:alpha=1.1,users=42",
		"pareto:alpha=NaN"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) { checkCanonical(t, in, ParseArrival, "none") })
}

func FuzzParseLink(f *testing.F) {
	for _, seed := range []string{"", "none", "rtt=20ms±5ms,loss=0.1%,bw=10mbit", "rtt=150us", "loss=0.5",
		"loss=NaN%", "loss=NaN", "bw=NaNmbit", "rtt=20ms±NaN", "rtt=1e300s"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) { checkCanonical(t, in, ParseLink, "none") })
}

func FuzzParseShed(f *testing.F) {
	for _, seed := range []string{"", "fifo", "qlen=32", "delay=100us", "delay=1ms", "delay=NaNus", "delay=1e300s"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) { checkCanonical(t, in, ParseShed, "fifo") })
}
