package apps

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/topo"
)

// openLoopAt runs memcached's open-loop driver at a small budget.
func openLoopAt(cores int, ol OpenLoopOpts) Result {
	ol.RequestsPerCore = 120
	ol.CalibRequestsPerCore = 30
	k := kernel.New(topo.New(cores), kernel.PK(), 1)
	return RunMemcachedOpenLoop(k, DefaultMemcachedOpts(), ol)
}

// TestOpenLoopAllApps: every open-loop server workload (memcached is the
// only one) produces a coherent Result: full accounting, a populated
// sojourn histogram, and an offered rate at the requested multiple.
func TestOpenLoopAllApps(t *testing.T) {
	t.Run("memcached", func(t *testing.T) {
		r := openLoopAt(4, OpenLoopOpts{LoadPercent: 75})
		if r.OfferedOps != 4*120 {
			t.Fatalf("offered %d, want %d", r.OfferedOps, 4*120)
		}
		if r.Ops+r.ShedOps+r.LateOps != r.OfferedOps {
			t.Errorf("%d completed + %d shed + %d late != %d offered",
				r.Ops, r.ShedOps, r.LateOps, r.OfferedOps)
		}
		if r.Ops == 0 {
			t.Fatal("no completions at 75% load")
		}
		if int64(r.Sojourns.Count()) != r.Ops {
			t.Errorf("sojourn histogram has %d samples, want %d", r.Sojourns.Count(), r.Ops)
		}
		if r.OfferedPerCore <= 0 {
			t.Error("no offered rate recorded")
		}
		if r.SojournMicros(0.5) <= 0 || r.SojournMicros(0.99) < r.SojournMicros(0.5) {
			t.Errorf("bad quantiles: p50 %.1fus p99 %.1fus", r.SojournMicros(0.5), r.SojournMicros(0.99))
		}
	})
}

// TestOpenLoopOverloadDiffersByApp pins memcached's retransmission model: a UDP
// server cannot tell a client retransmission from a fresh request, so it
// re-serves each one in full and counts no duplicates.
func TestOpenLoopOverloadDiffersByApp(t *testing.T) {
	mc := openLoopAt(4, OpenLoopOpts{LoadPercent: 300})
	if mc.NetRetries == 0 {
		t.Error("memcached at 3x load shows no client retransmissions")
	}
	if mc.NetDups != 0 {
		t.Errorf("memcached counts %d dedups; UDP cannot dedup", mc.NetDups)
	}
}

// TestOpenLoopCountsInjectedDups: memcached re-serves client
// retransmissions instead of counting them, but duplicates a faulty NIC
// delivers during the measured phase still reach NetDups and DupsPerOp.
func TestOpenLoopCountsInjectedDups(t *testing.T) {
	spec, err := fault.Parse("dup:0.2")
	if err != nil {
		t.Fatal(err)
	}
	m := topo.New(4)
	plan, err := spec.CompileFor(m, m.NCores)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.NewOnEngine(sim.NewEngine(m, 1), kernel.PK(), plan, nil)
	r := RunMemcachedOpenLoop(k, DefaultMemcachedOpts(),
		OpenLoopOpts{LoadPercent: 75, RequestsPerCore: 120, CalibRequestsPerCore: 30})
	if r.NetDups == 0 {
		t.Fatal("a NIC duplicating 20% of packets delivered no duplicates")
	}
	if got, want := r.DupsPerOp(), float64(r.NetDups)/float64(r.Ops); got != want {
		t.Errorf("DupsPerOp = %v, want %v", got, want)
	}
}

// TestOpenLoopSheddingCapsLatency: with the delay-bounded policy the
// worst sojourn stays near the budget while the unbounded FIFO's tail
// runs away, and goodput under shedding is no worse.
func TestOpenLoopSheddingCapsLatency(t *testing.T) {
	over := OpenLoopOpts{LoadPercent: 200}
	fifo := openLoopAt(4, over)

	shed := over
	shed.Shed = &load.ShedSpec{DelayCycles: load.DefaultShedDelayCycles}
	sh := openLoopAt(4, shed)

	if sh.ShedOps == 0 {
		t.Fatal("bounded policy shed nothing at 2x load")
	}
	if fifo.ShedOps != 0 {
		t.Fatalf("unbounded FIFO shed %d", fifo.ShedOps)
	}
	if sh.SojournMicros(0.999) >= fifo.SojournMicros(0.999) {
		t.Errorf("shedding p999 %.0fus not below FIFO p999 %.0fus",
			sh.SojournMicros(0.999), fifo.SojournMicros(0.999))
	}
	// A short burst ends before FIFO's backlog turns into timeouts, so
	// goodput is compared only under sustained overload (the latload
	// golden test); here the bound is on what shedding may cost.
	if sh.Ops+sh.ShedOps != sh.OfferedOps {
		t.Errorf("%d completed + %d shed != %d offered", sh.Ops, sh.ShedOps, sh.OfferedOps)
	}
}

// TestOpenLoopDeterminism: same seed, same Result, for a spec-heavy
// configuration (heavy-tailed arrivals, lossy jittered link, shedding).
func TestOpenLoopDeterminism(t *testing.T) {
	arr, err := load.ParseArrival("pareto:alpha=1.3,users=10000")
	if err != nil {
		t.Fatal(err)
	}
	link, err := load.ParseLink("rtt=100us±50us,loss=1%")
	if err != nil {
		t.Fatal(err)
	}
	ol := OpenLoopOpts{Arrival: arr, Link: link, Shed: &load.ShedSpec{QueueLimit: 16}, LoadPercent: 150}
	a := openLoopAt(4, ol)
	b := openLoopAt(4, ol)
	if a.Ops != b.Ops || a.ShedOps != b.ShedOps || a.LateOps != b.LateOps ||
		a.NetRetries != b.NetRetries || *a.Sojourns != *b.Sojourns {
		t.Error("identical open-loop runs diverged")
	}
}
