package topo

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 49, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestPackedPlacement(t *testing.T) {
	m := New(48)
	if got := m.Chip(0); got != 0 {
		t.Errorf("Chip(0) = %d, want 0", got)
	}
	if got := m.Chip(5); got != 0 {
		t.Errorf("Chip(5) = %d, want 0", got)
	}
	if got := m.Chip(6); got != 1 {
		t.Errorf("Chip(6) = %d, want 1", got)
	}
	if got := m.Chip(47); got != 7 {
		t.Errorf("Chip(47) = %d, want 7", got)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	m := Default().WithCoresRR(16)
	// Cores 0..7 land on chips 0..7, then wrap.
	for c := 0; c < 16; c++ {
		if got, want := m.Chip(c), c%Chips; got != want {
			t.Errorf("RR Chip(%d) = %d, want %d", c, got, want)
		}
	}
	if got := m.ChipsInUse(); got != 8 {
		t.Errorf("RR ChipsInUse = %d, want 8", got)
	}
	if got := Default().WithCoresRR(3).ChipsInUse(); got != 3 {
		t.Errorf("RR(3) ChipsInUse = %d, want 3", got)
	}
}

func TestChipsInUsePacked(t *testing.T) {
	cases := []struct{ cores, chips int }{
		{1, 1}, {6, 1}, {7, 2}, {12, 2}, {13, 3}, {48, 8},
	}
	for _, c := range cases {
		if got := New(c.cores).ChipsInUse(); got != c.chips {
			t.Errorf("New(%d).ChipsInUse() = %d, want %d", c.cores, got, c.chips)
		}
	}
}

func TestCoresOnChipSumsToNCores(t *testing.T) {
	check := func(n int, rr bool) bool {
		n = 1 + (abs(n) % MaxCores)
		m := New(n)
		m.RoundRobin = rr
		total := 0
		for chip := 0; chip < Chips; chip++ {
			total += m.CoresOnChip(chip)
		}
		return total == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMLatencyEndpoints(t *testing.T) {
	m := Default()
	if got := m.DRAMLatency(0, 0); got != LatDRAMLocal {
		t.Errorf("local DRAM latency = %d, want %d", got, LatDRAMLocal)
	}
	// Farthest chip on an 8-ring is 4 hops.
	if got := m.DRAMLatency(0, 4); got != LatDRAMFar {
		t.Errorf("far DRAM latency = %d, want %d", got, LatDRAMFar)
	}
}

func TestDRAMLatencySymmetricAndMonotonic(t *testing.T) {
	m := Default()
	check := func(a, b int) bool {
		a, b = abs(a)%Chips, abs(b)%Chips
		l := m.DRAMLatency(a, b)
		if l != m.DRAMLatency(b, a) {
			return false
		}
		return l >= LatDRAMLocal && l <= LatDRAMFar
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestHTLatencyTableAllChipPairs pins the default machine's
// interpolation helper over every one of the 8x8 chip pairs: DRAMLatency
// must equal the local latency plus HTLatency of the pair's hop distance,
// and HTLatency itself must hit the per-hop table derived from the
// paper's 122..503 cycle spread (multiply-before-divide, so the 4-hop
// endpoint lands exactly on LatDRAMFar).
func TestHTLatencyTableAllChipPairs(t *testing.T) {
	m := Default()
	wantByHops := []int64{0, 95, 190, 285, 381}
	if got := m.MaxHops(); got != len(wantByHops)-1 {
		t.Fatalf("MaxHops() = %d, want %d", got, len(wantByHops)-1)
	}
	for h, want := range wantByHops {
		if got := m.HTLatency(h); got != want {
			t.Errorf("HTLatency(%d) = %d, want %d", h, got, want)
		}
	}
	for a := 0; a < Chips; a++ {
		for b := 0; b < Chips; b++ {
			hops := m.HopDistance(a, b)
			want := int64(LatDRAMLocal) + wantByHops[hops]
			if got := m.DRAMLatency(a, b); got != want {
				t.Errorf("DRAMLatency(%d,%d) = %d, want %d (%d hops)", a, b, got, want, hops)
			}
			if got := m.DRAMLatencyAtHops(hops); got != want {
				t.Errorf("DRAMLatencyAtHops(%d) = %d, want %d", hops, got, want)
			}
		}
	}
	if got := m.DRAMLatency(0, m.MaxHops()); got != LatDRAMFar {
		t.Errorf("4-hop endpoint = %d, must land exactly on LatDRAMFar %d", got, LatDRAMFar)
	}
}

// TestRouteAllChipPairs checks the default machine's link-graph
// invariants for every chip pair: the route's length equals the hop
// distance, consecutive links actually join up into a path from a to b,
// and the route is empty only for a == b.
func TestRouteAllChipPairs(t *testing.T) {
	m := Default()
	if got := m.NumLinks(); got != Chips {
		t.Fatalf("NumLinks() = %d, want %d (one ring link per chip)", got, Chips)
	}
	for a := 0; a < Chips; a++ {
		for b := 0; b < Chips; b++ {
			r := m.Route(a, b)
			if len(r) != m.HopDistance(a, b) {
				t.Errorf("len(Route(%d,%d)) = %d, want hop distance %d", a, b, len(r), m.HopDistance(a, b))
				continue
			}
			// Walk the route: each link must join the current chip to the
			// next one, ending at b.
			at := a
			for _, l := range r {
				x, y := m.LinkEnds(l)
				switch at {
				case x:
					at = y
				case y:
					at = x
				default:
					t.Fatalf("Route(%d,%d): link %d joins (%d,%d), not current chip %d", a, b, l, x, y, at)
				}
			}
			if at != b {
				t.Errorf("Route(%d,%d) ends at chip %d", a, b, at)
			}
		}
	}
}

// TestRouteAntipodeDeterministic pins the tie-break: 4-hop routes go in
// the increasing-chip direction.
func TestRouteAntipodeDeterministic(t *testing.T) {
	want := []int{0, 1, 2, 3}
	got := Default().Route(0, 4)
	if len(got) != len(want) {
		t.Fatalf("Route(0,4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Route(0,4) = %v, want %v", got, want)
		}
	}
}

func TestRemoteCacheLatency(t *testing.T) {
	m := Default()
	if got := m.RemoteCacheLatency(2, 2); got != LatL3 {
		t.Errorf("same-chip remote cache latency = %d, want L3 %d", got, LatL3)
	}
	if got := m.RemoteCacheLatency(0, 4); got != LatDRAMFar {
		t.Errorf("cross-machine dirty fetch = %d, want %d", got, LatDRAMFar)
	}
}

func TestTimeConversionsRoundTrip(t *testing.T) {
	if got := SecToCycles(1.0); got != ClockHz {
		t.Errorf("SecToCycles(1) = %d, want %d", got, ClockHz)
	}
	if got := MicrosToCycles(1.0); got != 2400 {
		t.Errorf("MicrosToCycles(1) = %d, want 2400", got)
	}
	if got := CyclesToMicros(2400); got != 1.0 {
		t.Errorf("CyclesToMicros(2400) = %f, want 1", got)
	}
	check := func(us uint16) bool {
		c := MicrosToCycles(float64(us))
		back := CyclesToMicros(c)
		diff := back - float64(us)
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
