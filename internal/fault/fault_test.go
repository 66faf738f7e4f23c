package fault

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

func mustParse(t *testing.T, s string) *Spec {
	t.Helper()
	spec, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return spec
}

func TestParseCanonicalString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "none"},
		{"none", "none"},
		{"link:3-4@50%", "link:3-4@50%"},
		{"link:4-3@50%", "link:3-4@50%"},                 // ends normalized
		{"link:0-7@down", "link:7-0@0%"},                 // ring link 7 joins 7 and 0
		{"drop:0.01,dram:0@75%", "dram:0@75%,drop:0.01"}, // stable order
		{"core:7@off", "core:7@off"},
		{"dup:0.002", "dup:0.002"},
		{"dram:2@50%@t=1ms", "dram:2@50%@t=0.001s"},
	}
	for _, c := range cases {
		if got := mustParse(t, c.in).String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"link:0-1@150%", // over 100%
		"dram:0@0%",     // a dead controller cannot be modeled
		"core:0@50%",    // cores are only on/off
		"drop:1.5",
		"bogus:1",
		"link:0-1",    // missing value
		"link:0--1@0", // negative chip: String would render "link:-1-0@0%", which does not parse
		"dram:-1@50%", // negative chip
		"core:-1@off", // negative core
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestValidateRangeErrors(t *testing.T) {
	// Grammar-valid but machine-invalid specs fail at ValidateFor/CompileFor.
	for _, in := range []string{
		"link:0-2@50%", // not ring-adjacent
		"dram:9@50%",   // chip out of range
		"core:99@off",  // core out of range
	} {
		if err := mustParse(t, in).ValidateFor(topo.Default()); err == nil {
			t.Errorf("Validate(%q) succeeded, want error", in)
		}
	}
}

func TestScale(t *testing.T) {
	s := mustParse(t, "link:0-1@50%,dram:0@80%,drop:0.02,core:5@off")
	half := s.Scale(0.5)
	// Remaining capacity interpolates toward 1: 50%→75%, 80%→90%; drop
	// halves; the core event survives only at full severity.
	want := "link:0-1@75%,dram:0@90%,drop:0.01"
	if got := half.String(); got != want {
		t.Errorf("Scale(0.5) = %q, want %q", got, want)
	}
	if got := s.Scale(0).String(); got != "none" {
		t.Errorf("Scale(0) = %q, want none", got)
	}
	if got := s.Scale(1).String(); got != s.String() {
		t.Errorf("Scale(1) = %q, want %q", got, s)
	}
}

func TestCompile(t *testing.T) {
	s := mustParse(t, "link:0-1@down,core:5@off,dram:2@50%,drop:0.01,dram:3@25%@t=2ms")
	plan, err := s.CompileFor(topo.Default(), topo.MaxCores)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !plan.Offline[5] {
		t.Error("core 5 not marked offline")
	}
	if plan.BootRoutes == nil {
		t.Fatal("dead boot link produced no reroute table")
	}
	if got := plan.BootRoutes.DeadLinks(); len(got) != 1 || got[0] != 0 {
		t.Errorf("BootRoutes.DeadLinks() = %v, want [0]", got)
	}
	// Chip 0→1 must detour the long way around the ring (7 hops).
	if got := len(plan.BootRoutes.Route(0, 1)); got != 7 {
		t.Errorf("rerouted 0->1 takes %d hops, want 7", got)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].AtCycles != topo.SecToCycles(0.002) {
		t.Errorf("Steps = %+v, want one step at t=2ms", plan.Steps)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := mustParse(t, "core:0@off").CompileFor(topo.Default(), 1); err == nil {
		t.Error("offlining every enabled core must not compile")
	}
	if _, err := mustParse(t, "core:1@off").CompileFor(topo.Default(), 1); err != nil {
		t.Errorf("offlining a core outside the run should compile: %v", err)
	}
	if _, err := mustParse(t, "core:5@off@t=1ms").CompileFor(topo.Default(), 48); err == nil {
		t.Error("timed core offlining must be rejected (boot-time only)")
	}
}

func TestValidatePartition(t *testing.T) {
	// Two dead links split the ring: chips between them are unreachable.
	s := mustParse(t, "link:0-1@down,link:4-5@down")
	if err := s.ValidateFor(topo.Default()); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("ValidateFor() = %v, want ring-partition error", err)
	}
	if err := mustParse(t, "link:0-1@down").ValidateFor(topo.Default()); err != nil {
		t.Errorf("single dead link should validate: %v", err)
	}
}

func TestLossBoundAndNetProbs(t *testing.T) {
	s := mustParse(t, "link:0-1@50%,dram:0@25%,core:0@off,core:1@off,drop:0.02,dup:0.01")
	// Worst single capacity loss (dram at 75%) + 2/48 cores offline.
	want := 0.75 + 2.0/48
	if got := s.LossBound(48); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("LossBound(48) = %g, want %g", got, want)
	}
	drop, dup := s.NetProbs()
	if drop != 0.02 || dup != 0.01 {
		t.Errorf("NetProbs() = %g, %g, want 0.02, 0.01", drop, dup)
	}
	if got := (*Spec)(nil).LossBound(48); got != 0 {
		t.Errorf("nil LossBound = %g, want 0", got)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	if Backoff(0) != RetryBaseCycles {
		t.Errorf("Backoff(0) = %d, want %d", Backoff(0), RetryBaseCycles)
	}
	if Backoff(1) != 2*RetryBaseCycles {
		t.Errorf("Backoff(1) = %d, want %d", Backoff(1), 2*RetryBaseCycles)
	}
	// Monotone then capped: each attempt waits at least as long as the
	// previous one, and once the cap is reached the delay pins there
	// exactly — the property the open-loop client's retransmission
	// deadlines (and the degrade experiment's latency floor) build on.
	capped := false
	for n := 1; n < 40; n++ {
		prev, b := Backoff(n-1), Backoff(n)
		if b < prev {
			t.Fatalf("Backoff(%d) = %d < Backoff(%d) = %d; backoff must be monotone", n, b, n-1, prev)
		}
		if b > RetryCapCycles {
			t.Fatalf("Backoff(%d) = %d exceeds cap %d", n, b, RetryCapCycles)
		}
		if capped && b != RetryCapCycles {
			t.Fatalf("Backoff(%d) = %d left the cap %d", n, b, RetryCapCycles)
		}
		capped = capped || b == RetryCapCycles
	}
	if !capped {
		t.Fatalf("Backoff never reached the cap %d within 40 attempts", RetryCapCycles)
	}
}

func TestEqualAndFingerprint(t *testing.T) {
	a := mustParse(t, "drop:0.01,link:3-4@50%")
	b := mustParse(t, "link:4-3@50%,drop:0.01")
	if a.String() != b.String() {
		t.Errorf("%q and %q should be equal after canonicalization", a, b)
	}
	if Fingerprint() == "" {
		t.Error("Fingerprint() is empty")
	}
}

// FuzzParse checks that every spec Parse accepts round-trips through its
// canonical String, and that validating, compiling and scaling it never
// panic (they may return errors: a parsed spec need not fit the machine).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"", "none", "link:3-4@50%", "link:0-7@down", "drop:0.01,dram:0@75%",
		"core:7@off", "dup:0.002", "dram:2@50%@t=1ms", "link:0--1@0",
		"dram:0@50%@t=100us,drop:0.01@t=20us", "link:3-4@0.5@t=0.5s,core:47@off",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		canon := s.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its String %q does not parse: %v", in, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("Parse(%q) renders %q, which reparses to %q", in, canon, again)
		}
		_ = s.ValidateFor(topo.Default())
		_, _ = s.CompileFor(topo.Default(), 48)
		_ = s.Scale(0.5)
	})
}
