package mem

import (
	"testing"

	"repro/internal/topo"
)

// TestAccessSetMatchesSequentialCalls pins the batch API's contract: one
// AccessSet call costs exactly what the equivalent one-at-a-time calls at
// the same virtual time cost, and leaves the directory in the same state.
func TestAccessSetMatchesSequentialCalls(t *testing.T) {
	build := func() (*Model, []Line) {
		md := NewModel(topo.New(48))
		lines := md.AllocN(0, 6)
		// Seed varied directory state: sharers on other chips, one dirty.
		for _, l := range lines[:3] {
			md.Read(40, l, 0)
		}
		md.Write(20, lines[1], 0)
		return md, lines
	}

	for _, op := range []Op{OpRead, OpWrite, OpAtomic} {
		mdA, linesA := build()
		mdB, linesB := build()
		batch := mdA.AccessSet(7, linesA, op, 100)
		var seq int64
		for _, l := range linesB {
			switch op {
			case OpRead:
				seq += mdB.Read(7, l, 100)
			case OpWrite:
				seq += mdB.Write(7, l, 100)
			case OpAtomic:
				seq += mdB.Atomic(7, l, 100)
			}
		}
		if batch != seq {
			t.Errorf("op %d: AccessSet cost %d != sequential cost %d", op, batch, seq)
		}
		// A follow-up read must see identical directory state.
		for i := range linesA {
			if a, b := mdA.Read(30, linesA[i], 200), mdB.Read(30, linesB[i], 200); a != b {
				t.Errorf("op %d line %d: post-batch state diverged (read costs %d vs %d)", op, i, a, b)
			}
		}
	}
}

func TestLineSetBuilder(t *testing.T) {
	ls := NewLineSet(2)
	ls.Add(3).Add(5)
	if ls.Len() != 2 || ls.Lines()[0] != 3 || ls.Lines()[1] != 5 {
		t.Errorf("LineSet contents = %v, want [3 5]", ls.Lines())
	}
	ls.Reset()
	if ls.Len() != 0 {
		t.Errorf("Reset left %d lines", ls.Len())
	}
}

// TestDMAWriteForcesHomeFetch verifies the device-write transition: after a
// DMAWrite, a cached copy is gone and the next read pays a DRAM fetch from
// the line's home chip — remote for stock node-0 buffers, local for PK
// per-core pools.
func TestDMAWriteForcesHomeFetch(t *testing.T) {
	md := NewModel(topo.New(48))
	l := md.Alloc(0)
	md.Read(42, l, 0) // core 42 (chip 7) caches the line
	if got := md.Read(42, l, 10); got != topo.LatL1 {
		t.Fatalf("pre-DMA re-read cost %d, want L1 hit %d", got, topo.LatL1)
	}
	md.DMAWrite([]Line{l})
	want := topo.Default().DRAMLatency(7, 0)
	if got := md.Read(42, l, 20); got != want {
		t.Errorf("post-DMA read cost %d, want home-DRAM fetch %d", got, want)
	}

	// A core-written (dirty, busy) line is fully superseded by the device
	// write: no stale busy window, no dirty-owner fetch.
	md.Write(5, l, 30)
	md.DMAWrite([]Line{l})
	if got := md.Read(42, l, 31); got != want {
		t.Errorf("post-write post-DMA read cost %d, want clean home-DRAM fetch %d", got, want)
	}
}
