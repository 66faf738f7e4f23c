package mem

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/topo"
	"repro/internal/xrand"
)

func newModelBig192(t *testing.T) *Model {
	t.Helper()
	m, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("machine profile big192 not registered")
	}
	if m.NCores <= 128 {
		t.Fatalf("big192 has %d cores; the test needs sharer words beyond the second", m.NCores)
	}
	return NewModel(m)
}

// TestWideSharersInvalidateAndClear drives the sharer words for cores
// 64.. on the 192-core profile: a write must find and invalidate every
// high-core copy, and a DMA write must clear them.
func TestWideSharersInvalidateAndClear(t *testing.T) {
	md := newModelBig192(t)
	readers := []int{0, 70, 150}
	const writer = 130

	// Two lines with the same sharers: the read of one prices the fetch the
	// write of the other must pay before its invalidations.
	l, twin := md.Alloc(0), md.Alloc(0)
	for _, c := range readers {
		md.Read(c, l, 0)
		md.Read(c, twin, 0)
	}
	fetch := md.Read(writer, twin, 1000)
	got := md.Write(writer, l, 1000)
	if want := fetch + int64(len(readers))*invalidatePerSharer; got != want {
		t.Errorf("write by core %d over sharers %v cost %d, want fetch %d + %d invalidations = %d",
			writer, readers, got, fetch, len(readers), want)
	}
	s, hi := md.st(l)
	if len(hi) != md.words {
		t.Fatalf("line has %d high sharer words, want %d", len(hi), md.words)
	}
	if !s.onlySharer(hi, writer>>6, 1<<uint(writer&63)) {
		t.Errorf("after the write, sharers = %#x %#x; want core %d alone", s.sharers, hi, writer)
	}

	// Core 70 holds the twin; a DMA write must drop that high-word copy,
	// so the next read pays the home-DRAM fetch instead of an L1 hit.
	md.DMAWrite([]Line{twin})
	if s, hi := md.st(twin); s.anySharer(hi) {
		t.Errorf("after DMAWrite, sharers = %#x %#x; want none", s.sharers, hi)
	}
	home := md.Machine().DRAMLatency(md.Machine().Chip(70), 0)
	if got := md.Read(70, twin, 1_000_000); got != home {
		t.Errorf("read after DMAWrite cost %d, want the home-DRAM fetch %d", got, home)
	}
}

// TestDirectoryPagesDoNotAlias checks the boundary between the first and
// second directory page: lines pageSize-1 and pageSize, and the first
// lines of both pages, keep separate entries and separate high sharer
// words, and a label on the second page counts.
func TestDirectoryPagesDoNotAlias(t *testing.T) {
	md := newModelBig192(t)
	lines := md.AllocN(0, pageSize+2)
	firstPage := []Line{lines[0], lines[pageSize-1]}
	next := lines[pageSize]

	md.AccessSet(150, firstPage, OpWrite, 0)
	if s, hi := md.st(next); s.anySharer(hi) || s.dirty || s.owner != -1 {
		t.Errorf("line %d picked up state from the first page: %+v %#x", next, *s, hi)
	}
	md.Read(70, next, 0)
	for _, l := range firstPage {
		if s, hi := md.st(l); !s.onlySharer(hi, 150>>6, 1<<uint(150&63)) {
			t.Errorf("line %d picked up line %d's sharer: %#x %#x", l, next, s.sharers, hi)
		}
	}

	labeled := lines[pageSize+1]
	md.Label(labeled, "second-page")
	for i := range 3 {
		md.Write(i*64, labeled, int64(i)*1_000_000)
	}
	top := md.Prof.TopLines(1)
	if len(top) != 1 || top[0].Name != "second-page" || top[0].Writes != 3 {
		t.Errorf("labeled second-page line stats = %+v, want 3 writes", top)
	}
}

// TestDirectoryStateIsPointerFree keeps the directory off the garbage
// collector's scan list: a pointer-bearing field in state would make the
// GC walk every allocated line on every cycle.
func TestDirectoryStateIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(state{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("state.%s is a %s; directory entries must hold no pointers", f.Name, f.Type.Kind())
		case reflect.Array, reflect.Struct:
			t.Errorf("state.%s is a %s; keep entries to scalar fields", f.Name, f.Type.Kind())
		}
	}
	if size := typ.Size(); size != 32 {
		t.Errorf("state is %d bytes, want 32", size)
	}
}

// TestAllocAllocatesPerPage guards directory growth: lines come a page at
// a time and pages never move, so a run of Allocs costs one allocation per
// page plus the amortized growth of the page list, and allocates no more
// bytes than the entries themselves. A flat directory that regrows by
// copying allocates several times its own size.
func TestAllocAllocatesPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	md := NewModel(topo.New(48))
	const n = 4096
	allocLines := func() {
		for range n {
			md.Alloc(0)
		}
	}
	if allocs, limit := testing.AllocsPerRun(2, allocLines), float64(n/pageSize+1); allocs > limit {
		t.Errorf("%d Allocs made %.0f allocations, want at most %.0f", n, allocs, limit)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocLines()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(n * unsafe.Sizeof(state{}) * 11 / 10); bytes > limit {
		t.Errorf("%d Allocs allocated %d bytes, want at most %d (the entries plus 10%%)", n, bytes, limit)
	}
}

// TestRecycledPagesChargeLikeFresh is the page list's guarantee: a model
// whose directory pages and sharer words an earlier model dirtied and
// released charges the same cost sequence as a fresh model, on machines
// with and without sharer words beyond the first, and when the earlier
// model's sharer words have another length.
func TestRecycledPagesChargeLikeFresh(t *testing.T) {
	big, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("machine profile big192 not registered")
	}
	for _, tc := range []struct {
		name        string
		dirty, used *topo.Machine
	}{
		{"48 cores", topo.New(48), topo.New(48)},
		{"192 cores", big, big},
		{"192 then 96 cores", big, big.WithCores(96)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := chargeSequence(NewModel(tc.used), 1)

			spare := new(PageList)
			dirty := NewModelOn(tc.dirty, spare)
			chargeSequence(dirty, 2)
			dirtyPages, dirtyWide := dirty.pages, dirty.wide
			dirty.Release()
			if len(spare.pages) != len(dirtyPages) || dirty.NumLines() != 0 {
				t.Fatalf("Release left %d pages on the list and %d lines in the model; want %d and 0",
					len(spare.pages), dirty.NumLines(), len(dirtyPages))
			}

			md := NewModelOn(tc.used, spare)
			got := chargeSequence(md, 1)
			if md.pages[0] != dirtyPages[len(dirtyPages)-1] {
				t.Error("the second model did not take its first page from the list")
			}
			if tc.dirty == tc.used && len(dirtyWide) > 0 && &md.wide[0][0] != &dirtyWide[len(dirtyWide)-1][0] {
				t.Error("the second model did not take its first sharer words from the list")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("recycled pages changed the charged costs:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}

// chargeSequence allocates lines over several directory pages, drives a
// seeded mix of reads, writes, atomics, batch charges and DMA writes from
// cores across the whole machine, and returns every charged cost.
func chargeSequence(md *Model, seed uint64) []int64 {
	m := md.Machine()
	r := xrand.New(seed)
	lines := make([]Line, 0, 2*pageSize+pageSize/2)
	for range cap(lines) {
		lines = append(lines, md.Alloc(r.Intn(m.Chips)))
	}
	var costs []int64
	now := int64(0)
	for range 4000 {
		c := r.Intn(m.NCores)
		l := lines[r.Intn(len(lines))]
		now += int64(r.Intn(200))
		switch r.Intn(5) {
		case 0:
			costs = append(costs, md.Read(c, l, now))
		case 1:
			costs = append(costs, md.Write(c, l, now))
		case 2:
			costs = append(costs, md.Atomic(c, l, now))
		case 3:
			set := []Line{l, lines[r.Intn(len(lines))], lines[r.Intn(len(lines))]}
			costs = append(costs, md.AccessSet(c, set, OpRead, now))
		default:
			md.DMAWrite([]Line{l})
		}
	}
	return costs
}
