package sim

import (
	"testing"

	"repro/internal/topo"
)

// spawnIdlers spawns BenchmarkHandoffMany's shape: procs procs spread
// over the engine's cores, each idling a random 1..4000 cycles steps
// times.
func spawnIdlers(e *Engine, procs, steps int) {
	for i := range procs {
		e.Spawn(i%e.Machine.NCores, "idler", 0, func(p *Proc) {
			for range steps {
				p.Idle(1 + e.Rand.Int63n(4000))
			}
		})
	}
}

// TestPingPongHandoffIsOneSwitch: two procs with interleaved times hand
// off on every Advance, and each resumes the proc that resumed it, so
// every handoff past the first two is one coroutine switch (a dispatch
// loop of its own would make it two).
func TestPingPongHandoffIsOneSwitch(t *testing.T) {
	e := NewEngine(topo.New(2), 1)
	var h0, s0, h1, s1 uint64
	e.Spawn(0, "a", 0, func(p *Proc) {
		for i := range 1000 {
			switch i {
			case 10:
				h0, s0 = e.Handoffs(), e.Switches()
			case 990:
				h1, s1 = e.Handoffs(), e.Switches()
			}
			p.Advance(10)
		}
	})
	e.Spawn(1, "b", 5, func(p *Proc) {
		for range 1000 {
			p.Advance(10)
		}
	})
	e.Run()
	handoffs, switches := h1-h0, s1-s0
	if handoffs != 2*980 {
		t.Fatalf("%d handoffs in 980 rounds, want %d", handoffs, 2*980)
	}
	if switches != handoffs {
		t.Errorf("%d switches for %d handoffs, want exactly 1.0 per handoff", switches, handoffs)
	}
}

// TestSwitchesAtMostTwoPerHandoff bounds the switch count on
// BenchmarkHandoffMany's shape, whose successors are random. Every switch
// up the chain returns from a switch down, and every switch down resumes
// a proc just popped, so no run makes more than two switches per handoff.
func TestSwitchesAtMostTwoPerHandoff(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		e := NewEngine(topo.New(48), 1)
		if pooled {
			e = NewPooledEngine(topo.New(48), 1)
		}
		spawnIdlers(e, 64, 200)
		e.Run()
		h, s := e.Handoffs(), e.Switches()
		if h < 64*200/2 {
			t.Errorf("pooled=%v: %d handoffs for %d Idles, want most of them to hand off", pooled, h, 64*200)
		}
		if s > 2*h {
			t.Errorf("pooled=%v: %d switches for %d handoffs, want at most two each", pooled, s, h)
		}
		t.Logf("pooled=%v: %.3f switches/handoff", pooled, float64(s)/float64(h))
		e.Close()
	}
}

// TestNestedDeadlockReport: a deadlock found by a parker nested three
// deep (each proc blocks after resuming the next) names the same blocked
// procs, with the same times, as when a central loop found it.
func TestNestedDeadlockReport(t *testing.T) {
	e := NewPooledEngine(topo.New(3), 1)
	for c, name := range []string{"first", "second", "third"} {
		e.Spawn(c, name, int64(c), func(p *Proc) {
			p.Advance(100)
			p.Block()
		})
	}
	defer e.Close()
	defer func() {
		const want = "sim: deadlock: [first(core 0, t=100) second(core 1, t=101) third(core 2, t=102)]"
		if r := recover(); r != want {
			t.Errorf("Run panicked with %v, want %q", r, want)
		}
	}()
	e.Run()
}
