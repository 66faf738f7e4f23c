package harness

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/topo"
)

// TestPagesRecycleOnlyAfterFinishedPoints pins when a sweep worker takes
// directory pages back: after a point returns a result, from every model
// that point booted, and never while the point is still running. A point
// that panicked keeps its models' pages.
func TestPagesRecycleOnlyAfterFinishedPoints(t *testing.T) {
	type booted struct {
		cores int
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
		models = append(models, booted{c, first.MD}, booted{c, second.MD})
		if c == 4 {
			panic("injected panic after boot")
		}
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
	s := &Series{ID: "pages-test"}
	Options{Cores: []int{1, 4, 8}, Seed: 1, Serial: true}.runGrid(s, runs)
	if len(s.Points) != 2 || len(s.Failed) != 1 || s.Failed[0].Cores != 4 {
		t.Fatalf("got %d points and failures %+v; want 2 points and the 4-core point failed", len(s.Points), s.Failed)
	}
	if len(models) != 6 {
		t.Fatalf("points booted %d models, want 6 (two per point)", len(models))
	}
	for _, b := range models {
		released := b.md.NumLines() == 0
		if want := b.cores != 4; released != want {
			t.Errorf("model of the %d-core point: released = %v, want %v", b.cores, released, want)
		}
	}
}

// TestSweepDropsItsPages: a worker's engine slot, and with it the page
// list, lives only as long as the sweep. Once the sweep returns, nothing
// holds either, so the garbage collector frees them.
func TestSweepDropsItsPages(t *testing.T) {
	var mu sync.Mutex
	var slots []weak.Pointer[engineSlot]
	var lists []weak.Pointer[mem.PageList]
	runs := []variantRun{{"V", func(c int, o Options) Point {
		o.newKernel(o.topo(c), kernel.Stock())
		mu.Lock()
		slots = append(slots, weak.Make(o.slot))
		lists = append(lists, weak.Make(o.slot.spare))
		mu.Unlock()
		return Point{Cores: c, Variant: "V", PerCore: float64(c)}
	}}}
	s := &Series{ID: "pages-test"}
	Options{Cores: []int{1, 4, 8, 16}, Seed: 7}.runGrid(s, runs)
	if len(s.Points) != 4 || len(s.Failed) != 0 {
		t.Fatalf("got %d points and failures %+v; want 4 points, none failed", len(s.Points), s.Failed)
	}
	runtime.GC()
	for i := range slots {
		if slots[i].Value() != nil || lists[i].Value() != nil {
			t.Errorf("point %d's engine slot or page list outlived its sweep", i)
		}
	}
}

// TestRecycledPagesWideMachine covers page reuse on a machine past 64
// cores, where every line also carries sharer words for cores 64..: one
// serial worker runs fig4 at 96, 48, 128, 192 and 64 cores, so its page
// list moves between 1, 0, 1, 2 and 0 extra words per line, and the
// 128-core point reuses the 96-core point's sharer words. The sweep must
// match the same sweep on fresh engines, which never reuse a page; a
// recycled page that made a point panic would show as a Failed entry.
func TestRecycledPagesWideMachine(t *testing.T) {
	m, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("machine profile big192 not registered")
	}
	o := Options{Machine: m, Cores: []int{96, 48, 128, 192, 64}, Quick: true, Seed: 7, Serial: true}
	reused := ByID("fig4").Run(o)
	o.fresh = true
	fresh := ByID("fig4").Run(o)
	if len(reused.Points) != 10 || len(reused.Failed) != 0 {
		t.Fatalf("reused sweep: %d points, failures %+v; want 10 points, none failed", len(reused.Points), reused.Failed)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("recycled-page sweep differs from fresh sweep:\nreused: %+v\nfresh:  %+v", reused, fresh)
	}
}
