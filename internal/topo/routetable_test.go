package topo

import (
	"strings"
	"testing"
)

// ringHops is the closed-form hop distance between two chips of the
// default machine's eight-chip ring. The paper's chips form a twisted
// ladder; the ring metric reproduces its observed spread of DRAM
// latencies (122 local to 503 farthest, i.e. up to 4 hops away).
func ringHops(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d > Chips/2 {
		d = Chips - d
	}
	return d
}

// ringRoute is the closed-form shortest ring path from chip a to chip b:
// link l joins chips l and (l+1) mod Chips, and the antipodal tie goes
// toward increasing chip numbers.
func ringRoute(a, b int) []int {
	var r []int
	up := (b - a + Chips) % Chips
	for c := a; c != b; {
		if up <= Chips/2 {
			r = append(r, c)
			c = (c + 1) % Chips
		} else {
			c = (c + Chips - 1) % Chips
			r = append(r, c)
		}
	}
	return r
}

// TestDefaultRouteTableMatchesStaticRoutes checks the default machine's
// BFS routing against the closed-form ring formulas.
func TestDefaultRouteTableMatchesStaticRoutes(t *testing.T) {
	m := Default()
	rt := m.DefaultRoutes()
	for a := 0; a < Chips; a++ {
		for b := 0; b < Chips; b++ {
			want := ringRoute(a, b)
			got := rt.Route(a, b)
			if len(got) != len(want) {
				t.Fatalf("route %d->%d: table %v, static %v", a, b, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("route %d->%d: table %v, static %v", a, b, got, want)
				}
			}
			if rt.Hops(a, b) != ringHops(a, b) {
				t.Fatalf("hops %d->%d: table %d, static %d", a, b, rt.Hops(a, b), ringHops(a, b))
			}
			if m.HopDistance(a, b) != ringHops(a, b) {
				t.Fatalf("HopDistance(%d,%d) = %d, static %d", a, b, m.HopDistance(a, b), ringHops(a, b))
			}
		}
	}
	if len(rt.DeadLinks()) != 0 {
		t.Errorf("default table reports dead links %v", rt.DeadLinks())
	}
}

func TestRouteTableReroutesAroundDeadLink(t *testing.T) {
	// Link 0 joins chips 0 and 1; with it dead, 0->1 must go the long way
	// around the ring, and the detour's length must be what Hops reports.
	rt, err := Default().NewRouteTable([]int{0})
	if err != nil {
		t.Fatalf("NewRouteTable: %v", err)
	}
	r := rt.Route(0, 1)
	if len(r) != Chips-1 {
		t.Fatalf("0->1 detour %v has %d hops, want %d", r, len(r), Chips-1)
	}
	for _, l := range r {
		if l == 0 {
			t.Fatalf("detour %v crosses the dead link", r)
		}
	}
	if rt.Hops(0, 1) != Chips-1 {
		t.Errorf("Hops(0,1) = %d, want %d", rt.Hops(0, 1), Chips-1)
	}
	// Pairs that never used link 0 keep their shortest path.
	if rt.Hops(2, 4) != ringHops(2, 4) {
		t.Errorf("Hops(2,4) = %d, want %d", rt.Hops(2, 4), ringHops(2, 4))
	}
	// Self-route stays empty.
	if len(rt.Route(3, 3)) != 0 {
		t.Errorf("self route not empty: %v", rt.Route(3, 3))
	}
}

func TestRouteTablePartition(t *testing.T) {
	m := Default()
	if _, err := m.NewRouteTable([]int{0, 4}); err == nil {
		t.Fatal("two dead links partition the ring; NewRouteTable must fail")
	} else if !strings.Contains(err.Error(), "partition") {
		t.Errorf("error %q does not mention the partition", err)
	}
	if _, err := m.NewRouteTable([]int{8}); err == nil {
		t.Error("out-of-range link index accepted")
	}
}

func TestRouteTableEmptyDeadIsDefault(t *testing.T) {
	rt, err := Default().NewRouteTable(nil)
	if err != nil {
		t.Fatalf("NewRouteTable(nil): %v", err)
	}
	if rt != Default().DefaultRoutes() {
		t.Error("NewRouteTable(nil) should return the shared default table")
	}
}
