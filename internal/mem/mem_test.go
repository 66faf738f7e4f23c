package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func newModel48() *Model { return NewModel(topo.New(48)) }

func TestFirstReadComesFromDRAM(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	if got := md.Read(0, l, 0); got != topo.LatDRAMLocal {
		t.Errorf("first local read = %d, want %d", got, topo.LatDRAMLocal)
	}
	l2 := md.Alloc(4) // 4 hops from chip 0
	if got := md.Read(0, l2, 0); got != topo.LatDRAMFar {
		t.Errorf("first far read = %d, want %d", got, topo.LatDRAMFar)
	}
}

func TestRepeatReadHitsL1(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	md.Read(0, l, 0)
	if got := md.Read(0, l, 0); got != topo.LatL1 {
		t.Errorf("repeat read = %d, want L1 %d", got, topo.LatL1)
	}
}

func TestReadAfterRemoteWriteIsExpensive(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	md.Write(0, l, 0) // core 0 (chip 0) dirties the line
	// Core 47 (chip 7) reads: must fetch from chip 0's cache.
	got := md.Read(47, l, 1000)
	want := topo.Default().RemoteCacheLatency(7, 0)
	if got != want {
		t.Errorf("cross-chip dirty read = %d, want %d", got, want)
	}
	if got < 100 {
		t.Errorf("cross-chip dirty read = %d cycles; paper says hundreds", got)
	}
}

func TestSameChipSharingUsesL3(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	md.Read(0, l, 0)
	// Core 1 is on the same chip as core 0; a clean copy is in the L3.
	if got := md.Read(1, l, 1000); got != topo.LatL3 {
		t.Errorf("same-chip clean read = %d, want L3 %d", got, topo.LatL3)
	}
}

func TestWriteInvalidationCostGrowsWithSharers(t *testing.T) {
	costWith := func(readers int) int64 {
		md := newModel48()
		l := md.Alloc(0)
		for c := 1; c <= readers; c++ {
			md.Read(c, l, 0)
		}
		return md.Write(0, l, 1_000_000)
	}
	c1, c10, c40 := costWith(1), costWith(10), costWith(40)
	if !(c1 < c10 && c10 < c40) {
		t.Errorf("invalidation costs not increasing: %d, %d, %d", c1, c10, c40)
	}
}

func TestExclusiveRewriteIsCheap(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	md.Write(3, l, 0)
	if got := md.Write(3, l, 1_000_000); got != topo.LatL1 {
		t.Errorf("exclusive rewrite = %d, want L1 %d", got, topo.LatL1)
	}
}

func TestAtomicCostsMoreThanWrite(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	md.Write(0, l, 0)
	w := md.Write(0, l, 1_000_000)
	a := md.Atomic(0, l, 2_000_000)
	if a <= w {
		t.Errorf("atomic (%d) should cost more than write (%d)", a, w)
	}
}

func TestPingPongIsSymmetricallyExpensive(t *testing.T) {
	// Two cores on different chips alternately writing the same line must
	// each pay the cross-chip transfer every time — the classic
	// contended-counter pattern from §4.3.
	md := newModel48()
	l := md.Alloc(0)
	now := int64(0)
	md.Write(0, l, now)
	var costs []int64
	for i := 0; i < 6; i++ {
		now += 1_000_000 // far apart: isolate transfer cost from queueing
		c := 0
		if i%2 == 0 {
			c = 47
		}
		costs = append(costs, md.Write(c, l, now))
	}
	for i, got := range costs {
		if got < 100 {
			t.Errorf("ping-pong write %d cost %d, want hundreds of cycles", i, got)
		}
	}
}

func TestConcurrentWritesSerialize(t *testing.T) {
	// The coherence protocol serializes modifications of one line (§4.3):
	// N cores writing "simultaneously" must queue, so the last writer's
	// cost includes the whole convoy.
	md := newModel48()
	l := md.Alloc(0)
	md.Write(0, l, 0)
	var last int64
	for c := 1; c < 48; c++ {
		last = md.Write(c, l, 1000) // all arrive at the same instant
	}
	if last < 47*50 {
		t.Errorf("48 simultaneous writes: last cost %d cycles; want a serialized convoy", last)
	}
	// A second line is independent: no queueing carries over.
	l2 := md.Alloc(0)
	if got := md.Write(0, l2, 1000); got > 2*topo.LatDRAMLocal {
		t.Errorf("independent line write cost %d; must not inherit another line's queue", got)
	}
}

func TestAccessInvariants(t *testing.T) {
	// Property: after any access by core c, c is a sharer; after a write,
	// c is the exclusive dirty owner.
	type op struct {
		Core  uint8
		Write bool
	}
	md := newModel48()
	l := md.Alloc(0)
	now := int64(0)
	check := func(ops []op) bool {
		for _, o := range ops {
			now += 10_000
			c := int(o.Core) % 48
			if o.Write {
				md.Write(c, l, now)
				s, _ := md.st(l)
				if s.sharers != 1<<uint(c) || !s.dirty || s.owner != int16(c) {
					return false
				}
			} else {
				md.Read(c, l, now)
				s, _ := md.st(l)
				if s.sharers&(1<<uint(c)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCostsAlwaysPositive(t *testing.T) {
	md := newModel48()
	l := md.Alloc(3)
	now := int64(0)
	check := func(core uint8, write bool) bool {
		now += 100_000
		c := int(core) % 48
		var cost int64
		if write {
			cost = md.Write(c, l, now)
		} else {
			cost = md.Read(c, l, now)
		}
		return cost >= topo.LatL1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestUnallocatedLinePanics(t *testing.T) {
	md := newModel48()
	defer func() {
		if recover() == nil {
			t.Error("access to unallocated line did not panic")
		}
	}()
	md.Read(0, NoLine, 0)
}

func TestFieldsFalseSharing(t *testing.T) {
	md := newModel48()
	shared := NewFields(md, 0, 2, false) // stock: fields share a line
	padded := NewFields(md, 0, 2, true)  // PK: one line per field

	// Writer core 0 updates field 1 (stats); reader core 47 reads field 0
	// (a read-only flag). With false sharing the reader misses every time.
	warm := func(f *Fields, now int64) {
		md.Read(47, f.LineOf(0), now)
		md.Write(0, f.LineOf(1), now+100_000)
	}
	warm(shared, 0)
	warm(padded, 0)
	f := md.Read(47, shared.LineOf(0), 1_000_000)
	g := md.Read(47, padded.LineOf(0), 1_000_000)
	if f <= g {
		t.Errorf("false-shared read (%d) should cost more than padded read (%d)", f, g)
	}
	if g != topo.LatL1 {
		t.Errorf("padded read-only field read = %d, want L1 hit %d", g, topo.LatL1)
	}
}

func TestMissRatio(t *testing.T) {
	if got := MissRatio(1<<20, 5<<20); got != 0 {
		t.Errorf("fitting working set miss ratio = %v, want 0", got)
	}
	if got := MissRatio(10<<20, 5<<20); got != 0.5 {
		t.Errorf("2x working set miss ratio = %v, want 0.5", got)
	}
	check := func(ws, cap uint32) bool {
		r := MissRatio(int64(ws), int64(cap))
		return r >= 0 && r < 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
