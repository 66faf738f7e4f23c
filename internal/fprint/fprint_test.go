package fprint

import "testing"

func TestSumIsStableAndOrderIndependent(t *testing.T) {
	a := New("d").C("x", 1).C("y", 2.5).Sum()
	b := New("d").C("y", 2.5).C("x", 1).Sum()
	if a != b {
		t.Errorf("entry order changed the fingerprint: %s vs %s", a, b)
	}
	if again := New("d").C("x", 1).C("y", 2.5).Sum(); again != a {
		t.Errorf("fingerprint not stable across calls: %s vs %s", again, a)
	}
	if len(a) != 16 {
		t.Errorf("fingerprint length %d, want 16", len(a))
	}
}

func TestSumSensitivity(t *testing.T) {
	base := New("d").C("x", 1).Sum()
	if got := New("d").C("x", 2).Sum(); got == base {
		t.Error("changing a value did not change the fingerprint")
	}
	if got := New("d").C("z", 1).Sum(); got == base {
		t.Error("renaming a constant did not change the fingerprint")
	}
	if got := New("e").C("x", 1).Sum(); got == base {
		t.Error("changing the domain did not change the fingerprint")
	}
}

func TestSumComposes(t *testing.T) {
	sub := New("sub").C("k", 7).Sum()
	outer := New("outer").C("sub", sub).Sum()
	subChanged := New("sub").C("k", 8).Sum()
	outerChanged := New("outer").C("sub", subChanged).Sum()
	if outer == outerChanged {
		t.Error("a sub-domain change did not propagate to the composed fingerprint")
	}
}

func TestTableRendersLikeC(t *testing.T) {
	const (
		work  = 1400
		share = 0.05
		ratio = 4.0
	)
	table := struct {
		work  int64
		share float64
		ratio float64
		lines int
	}{work: work, share: share, ratio: ratio, lines: 2}
	want := New("d").C("work", work).C("share", share).C("ratio", ratio).C("lines", 2).Sum()
	if got := New("d").Table(table).Sum(); got != want {
		t.Errorf("Table fingerprint %s, want the per-constant C fingerprint %s", got, want)
	}
}
