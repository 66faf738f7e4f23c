package mem

import (
	"testing"

	"repro/internal/topo"
)

// BenchmarkMemWriteContended measures directory updates for a line that is
// shared by every core and written round-robin — the §4.1 worst case. Each
// write must cost the invalidation of all other sharers and find the
// nearest provider, exercising the sharer-scan paths.
func BenchmarkMemWriteContended(b *testing.B) {
	m := topo.New(48)
	md := NewModel(m)
	l := md.Alloc(0)
	// Establish all 48 cores as sharers, then alternate writers.
	var now int64
	for c := 0; c < 48; c++ {
		now += md.Read(c, l, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % 48
		now += md.Write(c, l, now)
		// Re-populate sharers so every write pays full invalidation.
		now += md.Read((c+7)%48, l, now)
		now += md.Read((c+13)%48, l, now)
	}
}

// BenchmarkMemReadSharedFar measures reads that must locate the nearest
// sharer across chips (the fetchFromSharers path).
func BenchmarkMemReadSharedFar(b *testing.B) {
	m := topo.New(48)
	md := NewModel(m)
	l := md.Alloc(0)
	var now int64
	now += md.Read(42, l, now) // lone sharer on chip 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % 6 // readers on chip 0 must find the chip-7 copy
		now += md.Read(c, l, now)
		now += md.Write(42, l, now) // reset: wipe sharers back to core 42
	}
}

// BenchmarkAccessSetRead measures batch charging of a fork-sized line set
// against the directory — the path AccessSet amortizes for kernel
// operations that touch dozens of lines.
func BenchmarkAccessSetRead(b *testing.B) {
	m := topo.New(48)
	md := NewModel(m)
	lines := md.AllocN(0, 24)
	var now int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += md.AccessSet(i%48, lines, OpRead, now)
	}
}

// BenchmarkAllocLabel measures allocation plus labeling, the directory
// growth path. Lines come in fixed pages, so allocs/op should stay near
// one per page: a label's profiler record is kept once however many lines
// carry it.
func BenchmarkAllocLabel(b *testing.B) {
	md := NewModel(topo.New(48))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := md.Alloc(0)
		if i%64 == 0 {
			md.Label(l, "bench")
		}
	}
}
