package scount

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// eagerSloppy is the reference sloppy counter: every core's pool line is
// allocated up front and Reconcile reads each of them. Sloppy allocates a
// pool's line on its core's first touch and charges the others from a
// shadow; TestLazyPoolsMatchEager holds it to this reference's charges.
type eagerSloppy struct {
	md          *mem.Model
	central     int64
	centralLine mem.Line
	cores       []sloppyCore
	inUse       int64
	threshold   int64
}

func newEagerSloppy(md *mem.Model, homeChip int) *eagerSloppy {
	s := &eagerSloppy{
		md:          md,
		centralLine: md.Alloc(homeChip),
		cores:       make([]sloppyCore, md.Machine().NCores),
		threshold:   DefaultSpareThreshold,
	}
	for c := range s.cores {
		s.cores[c].line = md.AllocLocal(c)
	}
	return s
}

func (s *eagerSloppy) Acquire(p *sim.Proc, v int64) {
	c := p.Core()
	s.inUse += v
	if pool := &s.cores[c]; pool.spares >= v {
		pool.spares -= v
		p.Advance(s.md.Write(c, pool.line, p.Now()))
		return
	}
	s.central += v
	p.Advance(s.md.Atomic(c, s.centralLine, p.Now()))
}

func (s *eagerSloppy) Release(p *sim.Proc, v int64) {
	c := p.Core()
	pool := &s.cores[c]
	s.inUse -= v
	pool.spares += v
	cost := s.md.Write(c, pool.line, p.Now())
	if pool.spares > s.threshold {
		give := pool.spares - s.threshold/2
		pool.spares -= give
		s.central -= give
		cost += s.md.Atomic(c, s.centralLine, p.Now())
	}
	p.Advance(cost)
}

func (s *eagerSloppy) InUse() int64 { return s.inUse }

func (s *eagerSloppy) Reconcile(p *sim.Proc) int64 {
	var cost int64
	total := s.central
	for _, pool := range s.cores {
		cost += s.md.Read(p.Core(), pool.line, p.Now())
		total -= pool.spares
	}
	cost += s.md.Read(p.Core(), s.centralLine, p.Now())
	p.Advance(cost)
	return total
}

func (s *eagerSloppy) Check() error {
	var spares int64
	for _, pool := range s.cores {
		spares += pool.spares
	}
	if s.central != s.inUse+spares {
		return fmt.Errorf("scount: invariant broken: central=%d inUse=%d spares=%d", s.central, s.inUse, spares)
	}
	return nil
}

// checkedCounter is a Counter that can verify its invariant.
type checkedCounter interface {
	Counter
	Check() error
}

// counterStep is what one operation of a differential script observed.
type counterStep struct {
	proc, op      int
	start, cost   int64
	result        int64 // Reconcile's value, or the references in use
	reads, writes int64
	check         string
}

// runCounterScript drives a counter with a seeded script on machine m:
// procs pinned to random cores start at random times and issue random
// Acquires, Releases (of references they hold) and Reconciles with random
// gaps. It returns every step's charge and the memory model's counts.
func runCounterScript(m *topo.Machine, seed uint64, mk func(md *mem.Model) checkedCounter) []counterStep {
	md := mem.NewModel(m)
	ctr := mk(md)
	e := sim.NewEngine(m, 1)
	r := xrand.New(seed)
	var steps []counterStep
	for id := range 24 {
		core := r.Intn(m.NCores)
		start := int64(r.Intn(5000))
		ops := make([][3]int64, 1+r.Intn(30)) // kind, references, gap
		for i := range ops {
			ops[i] = [3]int64{int64(r.Intn(10)), int64(1 + r.Intn(4)), int64(r.Intn(3000))}
		}
		e.Spawn(core, "p", start, func(p *sim.Proc) {
			var held int64
			for _, op := range ops {
				kind, v := op[0], op[1]
				st := counterStep{proc: id, start: p.Now()}
				switch {
				case kind == 0:
					st.op = 2
					st.result = ctr.Reconcile(p)
				case kind < 5 || held < v:
					st.op = 0
					ctr.Acquire(p, v)
					held += v
					st.result = ctr.InUse()
				default:
					st.op = 1
					ctr.Release(p, v)
					held -= v
					st.result = ctr.InUse()
				}
				st.cost = p.Now() - st.start
				st.reads, st.writes = md.Reads(), md.Writes()
				if err := ctr.Check(); err != nil {
					st.check = err.Error()
				}
				steps = append(steps, st)
				p.Advance(op[2])
			}
		})
	}
	e.Run()
	return steps
}

// TestLazyPoolsMatchEager is the differential test of the lazily allocated
// pools: on the default machine and on big192 (sharer words past core 64),
// random scripts charge Sloppy exactly what they charge the eager
// reference, step for step, with the same proc times, read and write
// counts, values and invariant checks.
func TestLazyPoolsMatchEager(t *testing.T) {
	big, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("machine profile big192 not registered")
	}
	for _, m := range []*topo.Machine{topo.Default(), big} {
		for seed := uint64(1); seed <= 40; seed++ {
			threshold := int64(2 + seed%8)
			want := runCounterScript(m, seed, func(md *mem.Model) checkedCounter {
				s := newEagerSloppy(md, int(seed)%m.Chips)
				s.threshold = threshold
				return s
			})
			var lazy *Sloppy
			got := runCounterScript(m, seed, func(md *mem.Model) checkedCounter {
				lazy = NewSloppy(md, int(seed)%m.Chips)
				lazy.Threshold = threshold
				return lazy
			})
			if !reflect.DeepEqual(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d: step %d = %+v, want %+v", m.Name, seed, i, got[i], want[i])
					}
				}
				t.Fatalf("%s seed %d: %d steps, want %d", m.Name, seed, len(got), len(want))
			}
			allocated := 0
			for _, pool := range lazy.cores {
				if pool.line != mem.NoLine {
					allocated++
				}
			}
			if allocated == len(lazy.cores) {
				t.Errorf("%s seed %d: every pool was allocated; the script never charged the shadow", m.Name, seed)
			}
		}
	}
}
