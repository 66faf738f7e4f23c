package prof

import (
	"strconv"
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

func TestTopLocksAggregatesInstances(t *testing.T) {
	r := New()
	for i := 0; i < 4; i++ {
		s := r.Lock("skb-pool-cpu" + string(rune('0'+i)))
		s.Acquisitions = 5
		s.WaitCycles = 10
	}
	top := r.TopLocks(10)
	if len(top) != 1 {
		t.Fatalf("per-cpu locks did not aggregate: %+v", top)
	}
	if top[0].Acquisitions != 20 || top[0].WaitCycles != 40 {
		t.Errorf("aggregate = %+v, want 20 acq / 40 wait", top[0])
	}
	if !strings.Contains(top[0].Name, "cpu*") {
		t.Errorf("aggregate name %q should mark the instance wildcard", top[0].Name)
	}
}

func TestLogicalNameStripping(t *testing.T) {
	cases := map[string]string{
		"d_lock:index.html": "d_lock",
		"skb-pool-cpu17":    "skb-pool-cpu*",
		"pgalloc-node3":     "pgalloc-node*",
		"vfsmount_lock":     "vfsmount_lock",
	}
	for in, want := range cases {
		if got := logicalName(in); got != want {
			t.Errorf("logicalName(%q) = %q, want %q", in, got, want)
		}
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

// TestLockRecordsSpanSlabs: records handed out from several slabs stay
// where they were handed out, so counters written through early pointers
// after later registrations all reach the report.
func TestLockRecordsSpanSlabs(t *testing.T) {
	r := New()
	const n = 3*lockSlab + 1
	recs := make([]*LockStats, n)
	for i := range recs {
		recs[i] = r.Lock("dentry:" + strconv.Itoa(i))
	}
	for i, s := range recs {
		s.Acquisitions = 1
		s.WaitCycles = int64(i)
	}
	top := r.TopLocks(1)
	if want := int64(n * (n - 1) / 2); len(top) != 1 || top[0].Acquisitions != n || top[0].WaitCycles != want {
		t.Errorf("TopLocks = %+v, want one row with %d acquisitions and %d wait cycles", top, n, want)
	}
}
