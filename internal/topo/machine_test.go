package topo

import (
	"strings"
	"testing"
)

// defaultFingerprint is the default profile's machine fingerprint, the
// value of the historical constant-based topo fingerprint.
const defaultFingerprint = "6a131a7bf44d2ac1"

// TestDefaultMachineFingerprintPinned is the warm-cache guard: the default
// profile's machine fingerprint must stay byte-identical to the
// historical constant-based fingerprint, or every cached default-machine
// sweep point silently invalidates.
func TestDefaultMachineFingerprintPinned(t *testing.T) {
	if got := Default().Fingerprint(); got != defaultFingerprint {
		t.Fatalf("Default().Fingerprint() = %s, want the pinned %s", got, defaultFingerprint)
	}
	if !Default().IsDefault() {
		t.Error("Default() does not report IsDefault")
	}
	// Core count and placement are run configuration, not hardware
	// identity: derived sweeps share the profile's fingerprint.
	if got := Default().WithCores(7).Fingerprint(); got != defaultFingerprint {
		t.Errorf("WithCores(7) fingerprint %s differs from the profile's %s", got, defaultFingerprint)
	}
	if Default().WithCoresRR(7).IsDefault() != true {
		t.Error("WithCoresRR(7) no longer reports IsDefault")
	}
	for _, name := range Names() {
		if name == Default().Name {
			continue
		}
		m, _ := Lookup(name)
		if m.IsDefault() {
			t.Errorf("profile %s claims to be the default machine", name)
		}
		if m.Fingerprint() == defaultFingerprint {
			t.Errorf("profile %s has the default machine's fingerprint", name)
		}
	}
}

// TestRegisteredProfilesWellFormed checks every registered profile's link
// graph: all chip pairs routable, hop distances symmetric and within the
// diameter, and every reported route actually walks link by link from
// source to destination.
func TestRegisteredProfilesWellFormed(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("registered profiles = %v, want the default plus at least 3 more", names)
	}
	for _, name := range names {
		m, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed for a name Names() returned", name)
		}
		if m.MaxCores() < 1 || m.NCores != m.MaxCores() {
			t.Fatalf("%s: registered profile has %d/%d cores enabled", name, m.NCores, m.MaxCores())
		}
		for a := 0; a < m.Chips; a++ {
			for b := 0; b < m.Chips; b++ {
				h := m.HopDistance(a, b)
				if (a == b) != (h == 0) {
					t.Fatalf("%s: HopDistance(%d,%d) = %d", name, a, b, h)
				}
				if h != m.HopDistance(b, a) {
					t.Fatalf("%s: HopDistance(%d,%d) not symmetric", name, a, b)
				}
				if h > m.MaxHops() {
					t.Fatalf("%s: HopDistance(%d,%d) = %d exceeds diameter %d", name, a, b, h, m.MaxHops())
				}
				route := m.Route(a, b)
				if len(route) != h {
					t.Fatalf("%s: route %d->%d has %d links, hop distance %d", name, a, b, len(route), h)
				}
				cur := a
				for _, l := range route {
					la, lb := m.LinkEnds(l)
					switch cur {
					case la:
						cur = lb
					case lb:
						cur = la
					default:
						t.Fatalf("%s: route %d->%d link %d (%d-%d) does not touch chip %d", name, a, b, l, la, lb, cur)
					}
				}
				if cur != b {
					t.Fatalf("%s: route %d->%d ends at chip %d", name, a, b, cur)
				}
			}
		}
	}
}

// TestRing16RouteTable pins routing on the 16-chip ring: an 8-hop
// antipode, the long-way detour around a dead link, and the partition
// error when two cuts sever the ring.
func TestRing16RouteTable(t *testing.T) {
	m, ok := Lookup("ring16")
	if !ok {
		t.Fatal("ring16 profile not registered")
	}
	if m.Chips != 16 || m.NumLinks() != 16 {
		t.Fatalf("ring16 has %d chips, %d links; want 16, 16", m.Chips, m.NumLinks())
	}
	if m.MaxHops() != 8 {
		t.Fatalf("ring16 diameter = %d, want 8", m.MaxHops())
	}
	if m.HopDistance(0, 8) != 8 {
		t.Errorf("HopDistance(0,8) = %d, want 8", m.HopDistance(0, 8))
	}
	l01, ok := m.LinkBetween(0, 1)
	if !ok {
		t.Fatal("ring16 chips 0 and 1 are not adjacent")
	}
	rt, err := m.NewRouteTable([]int{l01})
	if err != nil {
		t.Fatalf("NewRouteTable(dead 0-1): %v", err)
	}
	detour := rt.Route(0, 1)
	if len(detour) != 15 || rt.Hops(0, 1) != 15 {
		t.Fatalf("0->1 detour %v (%d hops), want the 15-hop long way", detour, rt.Hops(0, 1))
	}
	for _, l := range detour {
		if l == l01 {
			t.Fatalf("detour %v crosses the dead link", detour)
		}
	}
	l89, ok := m.LinkBetween(8, 9)
	if !ok {
		t.Fatal("ring16 chips 8 and 9 are not adjacent")
	}
	if _, err := m.NewRouteTable([]int{l01, l89}); err == nil {
		t.Fatal("two cuts partition the 16-ring; NewRouteTable must fail")
	} else if !strings.Contains(err.Error(), "partition") {
		t.Errorf("error %q does not mention the partition", err)
	}
}

// TestMesh4x4RouteTable pins routing on the 4x4 torus: the 4-hop
// diameter, the 3-hop reroute around one dead mesh link, and the
// partition error when a chip loses all four of its links.
func TestMesh4x4RouteTable(t *testing.T) {
	m, ok := Lookup("mesh4x4")
	if !ok {
		t.Fatal("mesh4x4 profile not registered")
	}
	if m.Chips != 16 || m.NumLinks() != 32 {
		t.Fatalf("mesh4x4 has %d chips, %d links; want 16, 32", m.Chips, m.NumLinks())
	}
	if m.MaxHops() != 4 {
		t.Fatalf("mesh4x4 diameter = %d, want 4", m.MaxHops())
	}
	// Chip 10 is (2,2): two wraps of two hops each from chip 0.
	if m.HopDistance(0, 10) != 4 {
		t.Errorf("HopDistance(0,10) = %d, want 4", m.HopDistance(0, 10))
	}
	l01, ok := m.LinkBetween(0, 1)
	if !ok {
		t.Fatal("mesh4x4 chips 0 and 1 are not adjacent")
	}
	rt, err := m.NewRouteTable([]int{l01})
	if err != nil {
		t.Fatalf("NewRouteTable(dead 0-1): %v", err)
	}
	if rt.Hops(0, 1) != 3 {
		t.Errorf("Hops(0,1) with the direct link dead = %d, want the 3-hop mesh detour", rt.Hops(0, 1))
	}
	// Untouched pairs keep their healthy distance.
	if rt.Hops(5, 6) != m.HopDistance(5, 6) {
		t.Errorf("Hops(5,6) = %d, want healthy %d", rt.Hops(5, 6), m.HopDistance(5, 6))
	}
	// Chip 0's torus neighbors are 1, 3 (x wrap), 4, and 12 (y wrap);
	// cutting all four isolates it.
	var dead []int
	for _, n := range []int{1, 3, 4, 12} {
		l, ok := m.LinkBetween(0, n)
		if !ok {
			t.Fatalf("mesh4x4 chips 0 and %d are not adjacent", n)
		}
		dead = append(dead, l)
	}
	if _, err := m.NewRouteTable(dead); err == nil {
		t.Fatal("cutting all of chip 0's links partitions the mesh; NewRouteTable must fail")
	} else if !strings.Contains(err.Error(), "partition") {
		t.Errorf("error %q does not mention the partition", err)
	}
}
