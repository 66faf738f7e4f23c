package harness

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/topo"
)

// TestPagesRecycleOnlyAfterFinishedPoints pins when a sweep worker takes
// directory pages back: after a point returns a result, from every model
// that point booted, and never while the point is still running. A point
// whose pooled attempt panicked keeps its models' pages (so does its
// retry, which runs outside the worker's slot).
func TestPagesRecycleOnlyAfterFinishedPoints(t *testing.T) {
	var mu sync.Mutex
	type booted struct {
		cores int
		fresh bool
		md    *mem.Model
	}
	var models []booted
	runs := []variantRun{{"V", func(c int, o Options) Point {
		first := o.newKernel(o.topo(c), kernel.Stock())
		lines := first.MD.NumLines()
		second := o.newKernel(o.topo(c), kernel.Stock())
		if first.MD.NumLines() != lines {
			panic("booting a second kernel released the first kernel's pages")
		}
		mu.Lock()
		models = append(models, booted{c, o.fresh, first.MD}, booted{c, o.fresh, second.MD})
		mu.Unlock()
		if c == 4 && !o.fresh {
			panic("injected panic after boot")
		}
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
	s := &Series{ID: "pages-test"}
	Options{Cores: []int{1, 4, 8}, Seed: 1, Serial: true}.runGrid(s, runs)
	if len(s.Failed) != 0 || len(s.Points) != 3 {
		t.Fatalf("got %d points and failures %+v; want 3 points, none failed", len(s.Points), s.Failed)
	}
	if len(models) != 8 {
		t.Fatalf("points booted %d models, want 8 (two per attempt, one retry)", len(models))
	}
	for _, b := range models {
		released := b.md.NumLines() == 0
		if want := b.cores != 4; released != want {
			t.Errorf("model of the %d-core point (fresh=%v): released = %v, want %v",
				b.cores, b.fresh, released, want)
		}
	}
	assertArenaHoldsNoPages(t)
}

// TestSweepDropsItsPages: the page list lives only as long as the sweep.
// Once Run returns, every slot back in the arena has dropped it.
func TestSweepDropsItsPages(t *testing.T) {
	ByID("fig4").Run(Options{Quick: true, Seed: 7})
	assertArenaHoldsNoPages(t)
}

func assertArenaHoldsNoPages(t *testing.T) {
	t.Helper()
	arena.mu.Lock()
	defer arena.mu.Unlock()
	if len(arena.free) == 0 {
		t.Fatal("no engine slot came back to the arena")
	}
	for i, s := range arena.free {
		s.mu.Lock()
		spare, booted := s.spare, len(s.booted)
		s.mu.Unlock()
		if spare != nil || booted != 0 {
			t.Errorf("arena slot %d still holds a page list (%v) and %d booted models", i, spare != nil, booted)
		}
	}
}

// TestRecycledPagesWideMachine covers page reuse on a machine past 64
// cores, where every line also carries sharer words for cores 64..: one
// serial worker runs fig4 at 96, 48, 128, 192 and 64 cores, so its page
// list moves between 1, 0, 1, 2 and 0 extra words per line, and the
// 128-core point reuses the 96-core point's sharer words. The sweep must
// match the same sweep on fresh engines, which never reuse a page, with
// no point retried: a retry runs on a fresh engine and would hide a
// recycled page that made the pooled attempt panic.
func TestRecycledPagesWideMachine(t *testing.T) {
	m, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("machine profile big192 not registered")
	}
	defer func() { testPointHook = nil }()
	var retries atomic.Int32
	testPointHook = func(exp, variant string, cores, attempt int) {
		if attempt > 0 {
			retries.Add(1)
		}
	}
	o := Options{Machine: m, Cores: []int{96, 48, 128, 192, 64}, Quick: true, Seed: 7, Serial: true}
	reused := ByID("fig4").Run(o)
	o.fresh = true
	fresh := ByID("fig4").Run(o)
	if len(reused.Points) != 10 || len(reused.Failed) != 0 {
		t.Fatalf("reused sweep: %d points, failures %+v; want 10 points, none failed", len(reused.Points), reused.Failed)
	}
	if n := retries.Load(); n != 0 {
		t.Errorf("%d points panicked on the pooled engine and were retried", n)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("recycled-page sweep differs from fresh sweep:\nreused: %+v\nfresh:  %+v", reused, fresh)
	}
}
