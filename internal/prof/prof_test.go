package prof

import (
	"strings"
	"testing"
)

func TestTopLocksOrdersByWait(t *testing.T) {
	r := New()
	a := r.Lock("a")
	b := r.Lock("b")
	a.Acquisitions, a.WaitCycles = 10, 100
	b.Acquisitions, b.WaitCycles = 10, 900
	top := r.TopLocks(10)
	if len(top) != 2 || top[0].Name != "b" {
		t.Errorf("TopLocks = %+v, want b first", top)
	}
}

// TestTopLocksAggregatesInstances: every lock of a class registers under
// the class name and gets the one record, so counts that the instances
// add through their own pointers reach a single row.
func TestTopLocksAggregatesInstances(t *testing.T) {
	r := New()
	for i := 0; i < 4; i++ {
		s := r.Lock("skb-pool-cpu*")
		s.Acquisitions += 5
		s.Contended++
		s.WaitCycles += 10
	}
	top := r.TopLocks(10)
	want := LockStats{Name: "skb-pool-cpu*", Acquisitions: 20, Contended: 4, WaitCycles: 40}
	if len(top) != 1 || top[0] != want {
		t.Errorf("TopLocks = %+v, want one row %+v", top, want)
	}
}

// TestLockInternsByName: one name gives one pointer however often it is
// registered, and distinct names give distinct records.
func TestLockInternsByName(t *testing.T) {
	r := New()
	a := r.Lock("d_lock")
	if b := r.Lock("d_lock"); b != a {
		t.Errorf("second Lock(d_lock) = %p, want the first record %p", b, a)
	}
	if c := r.Lock("i_mutex"); c == a || c.Name != "i_mutex" {
		t.Errorf("Lock(i_mutex) = %+v at %p, want its own record", c, c)
	}
	a.Acquisitions++
	r.Lock("d_lock").Acquisitions++
	if a.Acquisitions != 2 {
		t.Errorf("d_lock acquisitions = %d after two increments through two lookups, want 2", a.Acquisitions)
	}
}

func TestUnusedLocksOmitted(t *testing.T) {
	r := New()
	r.Lock("never-used")
	used := r.Lock("used")
	used.Acquisitions = 1
	if top := r.TopLocks(10); len(top) != 1 || top[0].Name != "used" {
		t.Errorf("TopLocks = %+v, want only the used lock", top)
	}
}

func TestTopLinesAndReport(t *testing.T) {
	r := New()
	l := r.Line("dst_entry.refcnt")
	l.Writes, l.WaitCycles = 100, 5000
	lk := r.Lock("mount")
	lk.Acquisitions, lk.Contended, lk.WaitCycles = 10, 5, 777

	out := r.Report(5)
	for _, want := range []string{"dst_entry.refcnt", "mount", "50.0% contended", "777"} {
		if !strings.Contains(out, want) {
			t.Errorf("Report missing %q:\n%s", want, out)
		}
	}
}

// TestTopLinesAggregatesLabel: every line under one label gets the one
// record, so a per-core array of labeled lines is one TopLines row with
// the writes and waits of all of them.
func TestTopLinesAggregatesLabel(t *testing.T) {
	r := New()
	a := r.Line("tcp.accept_backlog")
	b := r.Line("tcp.accept_backlog")
	a.Writes, a.WaitCycles = 20, 100
	b.Writes += 20
	b.WaitCycles += 50
	top := r.TopLines(10)
	want := LineStats{Name: "tcp.accept_backlog", Writes: 40, WaitCycles: 150}
	if len(top) != 1 || top[0] != want {
		t.Errorf("TopLines = %+v, want one row %+v", top, want)
	}
}

func TestTopNTruncates(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		s := r.Lock(string(rune('a' + i)))
		s.Acquisitions = 1
		s.WaitCycles = int64(i)
	}
	if got := len(r.TopLocks(3)); got != 3 {
		t.Errorf("TopLocks(3) returned %d entries", got)
	}
}

func TestEmptyReport(t *testing.T) {
	out := New().Report(5)
	if !strings.Contains(out, "(none)") {
		t.Errorf("empty report should say (none):\n%s", out)
	}
}
