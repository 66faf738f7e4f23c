package mm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestDoubleMunmapPanics checks that unmapping a region that is not mapped
// panics instead of charging an unmap of nothing. Munmap keeps the region
// for a later Mmap, so a second Munmap of it would otherwise queue it
// twice, and two later mappings would share one Region.
func TestDoubleMunmapPanics(t *testing.T) {
	e, md, a := setup(1)
	as := NewAddressSpace(md, a, Config{}, 0)
	other := NewAddressSpace(md, a, Config{}, 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		r := as.Mmap(p, PageBytes, false)
		mustPanic(t, "munmap of a region mapped in another address space", func() { other.Munmap(p, r) })
		as.Munmap(p, r)
		mustPanic(t, "second munmap of a region", func() { as.Munmap(p, r) })
	})
	e.Run()
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestReusedRegionIsFresh checks that Mmap reuses the regions Munmap
// returns and that a reused region is built as a new one: no pages
// faulted, its own size and page size, and for a PK super-page mapping a
// newly built mutex on a new line.
func TestReusedRegionIsFresh(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"stock", Config{}},
		{"pk", Config{PerMappingSuperPageMutex: true}},
	} {
		e, md, a := setup(2)
		as := NewAddressSpace(md, a, c.cfg, 0)
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			small := as.Mmap(p, 3*PageBytes, false)
			as.Fault(p, small, nil)
			as.Munmap(p, small)

			lines := md.NumLines()
			huge := as.Mmap(p, SuperPageBytes, true)
			if huge != small {
				t.Errorf("%s: Mmap did not reuse the unmapped region", c.name)
			}
			if huge.Faulted != 0 || huge.Pages() != 1 || huge.PageSize() != SuperPageBytes {
				t.Errorf("%s: reused region has %d faulted of %d pages of %d bytes, want 0 of 1 of %d",
					c.name, huge.Faulted, huge.Pages(), huge.PageSize(), SuperPageBytes)
			}
			newLines := md.NumLines() - lines
			if c.cfg.PerMappingSuperPageMutex {
				if huge.mu != &huge.own || newLines != 1 {
					t.Errorf("%s: reused super-page mapping has mutex %p (own %p) on %d new lines, want its own on 1",
						c.name, huge.mu, &huge.own, newLines)
				}
			} else if huge.mu != &as.superMu || newLines != 0 {
				t.Errorf("%s: reused super-page mapping has mutex %p on %d new lines, want the address space's %p on 0",
					c.name, huge.mu, newLines, &as.superMu)
			}
			as.Fault(p, huge, nil)
			as.Munmap(p, huge)

			again := as.Mmap(p, PageBytes, false)
			if again != huge {
				t.Errorf("%s: Mmap did not reuse the unmapped super-page region", c.name)
			}
			if again.mu != nil || again.Huge || again.Faulted != 0 {
				t.Errorf("%s: a reused small mapping has mutex %p, Huge %v, %d faulted pages; want nil, false, 0",
					c.name, again.mu, again.Huge, again.Faulted)
			}
			if second := as.Mmap(p, PageBytes, false); second == again {
				t.Errorf("%s: two live mappings share one Region", c.name)
			}
		})
		e.Run()
		if as.Regions() != 2 {
			t.Errorf("%s: %d regions mapped, want 2", c.name, as.Regions())
		}
	}
}

// TestMmapCycleAllocatesNothing pins pedsort's per-file host cost: in the
// steady state an Mmap, its faults and the Munmap reuse one Region and
// allocate nothing.
func TestMmapCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, huge := range []bool{false, true} {
		e, md, a := setup(4)
		as := NewAddressSpace(md, a, Config{}, 0)
		dram := mem.NewControllersFor(topo.New(4))
		cycle := func(p *sim.Proc) {
			r := as.Mmap(p, 4*PageBytes, huge)
			for range r.Pages() {
				as.Fault(p, r, dram)
			}
			as.Munmap(p, r)
		}
		var allocs float64
		e.Spawn(1, "p", 0, func(p *sim.Proc) {
			cycle(p) // grow the region and free lists once
			allocs = testing.AllocsPerRun(100, func() { cycle(p) })
		})
		e.Run()
		if allocs != 0 {
			t.Errorf("huge=%v: an Mmap+Fault+Munmap cycle allocates %.0f objects, want 0", huge, allocs)
		}
	}
}

// TestPageStructsAllocationBudget checks that the sampled page structs
// are built in a fixed number of heap objects whatever the sample size:
// their lines live in slices, not in one object per page struct.
func TestPageStructsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, padded := range []bool{false, true} {
		md := mem.NewModel(topo.New(48))
		count := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				ps := NewPageStructs(md, n, padded)
				// Return the lines so the next run reuses them and the
				// memory model's directory does not grow.
				for i := range n {
					md.Free(ps.flags[i])
					if padded {
						md.Free(ps.refs[i])
					}
				}
			})
		}
		if small, large := count(64), count(256); small != large {
			t.Errorf("padded=%v: NewPageStructs allocates %.0f objects for 64 page structs and %.0f for 256, want equal",
				padded, small, large)
		}
	}
}
