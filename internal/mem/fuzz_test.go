package mem

import (
	"testing"

	"repro/internal/topo"
)

// fuzzPoolLines is the allocated line pool fuzzed sets draw from; small
// enough that fuzz inputs routinely alias the same line (the interesting
// case for batch charging).
const fuzzPoolLines = 16

// buildFuzzSet decodes raw bytes into a LineSet over a fuzzPoolLines-line
// pool. Each byte selects a pool line; a 0xFF byte resets the set built so
// far, exercising capacity reuse mid-construction.
func buildFuzzSet(raw []byte, lines []Line) *LineSet {
	ls := NewLineSet(len(raw))
	for _, b := range raw {
		if b == 0xFF {
			ls.Reset()
			continue
		}
		ls.Add(lines[int(b)%len(lines)])
	}
	return ls
}

// seedFuzzState gives the directory varied pre-existing state driven by
// the seed byte: some lines shared remotely, some dirty, some untouched.
func seedFuzzState(md *Model, lines []Line, seed byte) {
	for i, l := range lines {
		switch (int(seed) + i) % 4 {
		case 0:
			md.Read(40, l, 0) // clean sharer on chip 6
		case 1:
			md.Write(13, l, 0) // dirty on chip 2
		case 2:
			md.Read(1, l, 0)
			md.Read(25, l, 0) // sharers on chips 0 and 4
		}
	}
}

// FuzzLineSet fuzzes line-set construction against the batch charging
// contract: for any construction sequence (including duplicates, resets,
// and a second set's lines appended onto the first), AccessSet over the
// combined set must cost exactly what the per-line calls cost one at a
// time at the same virtual time, and must leave the directory in the same
// state.
func FuzzLineSet(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{3, 4, 5}, uint8(7), uint8(0), uint8(1))
	f.Add([]byte{}, []byte{0, 0, 0, 0}, uint8(0), uint8(1), uint8(2))
	f.Add([]byte{1, 0xFF, 2, 2}, []byte{2, 0xFF}, uint8(47), uint8(2), uint8(3))
	f.Add([]byte{9, 9, 9, 9, 9}, []byte{9}, uint8(23), uint8(3), uint8(0))

	f.Fuzz(func(t *testing.T, rawA, rawB []byte, core, opByte, seed uint8) {
		if len(rawA)+len(rawB) > 256 {
			t.Skip("cap work per input")
		}
		c := int(core) % topo.MaxCores
		op := Op(int(opByte) % 3)

		build := func() (*Model, *LineSet) {
			md := NewModel(topo.New(topo.MaxCores))
			lines := md.AllocN(int(seed)%topo.Chips, fuzzPoolLines)
			seedFuzzState(md, lines, seed)
			merged := buildFuzzSet(rawA, lines)
			for _, l := range buildFuzzSet(rawB, lines).Lines() {
				merged.Add(l)
			}
			return md, merged
		}

		mdA, setA := build()
		mdB, setB := build()
		if setA.Len() != setB.Len() {
			t.Fatalf("identical construction produced lengths %d and %d", setA.Len(), setB.Len())
		}

		const now = 1000
		batch := mdA.AccessSet(c, setA.Lines(), op, now)
		var seq int64
		for _, l := range setB.Lines() {
			switch op {
			case OpRead:
				seq += mdB.Read(c, l, now)
			case OpWrite:
				seq += mdB.Write(c, l, now)
			case OpAtomic:
				seq += mdB.Atomic(c, l, now)
			}
		}
		if batch != seq {
			t.Errorf("op %d core %d: batch cost %d != sequential cost %d (set %v)",
				op, c, batch, seq, setA.Lines())
		}
		// The directory must be in identical state afterwards: probe every
		// pool line from a different core at a later time.
		probe := (c + 9) % topo.MaxCores
		for l := Line(0); int(l) < fuzzPoolLines; l++ {
			if a, b := mdA.Read(probe, l, now+5000), mdB.Read(probe, l, now+5000); a != b {
				t.Errorf("op %d: post-batch state diverged on line %d (probe costs %d vs %d)", op, l, a, b)
			}
		}
		if mdA.Reads() != mdB.Reads() || mdA.Writes() != mdB.Writes() {
			t.Errorf("op %d: access counters diverged (reads %d/%d writes %d/%d)",
				op, mdA.Reads(), mdB.Reads(), mdA.Writes(), mdB.Writes())
		}
	})
}

// FuzzParsePlacement pins the placement round trip the sweep cache key
// relies on (a placement's String is a key term): whatever ParsePlacementFor
// accepts, on the default machine or a larger one, String renders back to
// a string that parses to the same value, and parsing never panics.
func FuzzParsePlacement(f *testing.F) {
	for _, s := range []string{"", "local", "striped", "remote", "home:0", "home:5", "home:7",
		"home:8", "home:15", "home:-1", "home:+3", "home:03", "home:", "home:x", "Home:1", "nope"} {
		f.Add(s)
	}
	ring, ok := topo.Lookup("ring16")
	if !ok {
		f.Fatal("no ring16 machine profile")
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, m := range []*topo.Machine{topo.Default(), ring} {
			pl, err := ParsePlacementFor(m, s)
			if err != nil {
				continue
			}
			back, err := ParsePlacementFor(m, pl.String())
			if err != nil || back != pl {
				t.Fatalf("%s: %q parsed to %+v, rendered %q, reparsed to %+v, %v", m.Name, s, pl, pl.String(), back, err)
			}
		}
	})
}
