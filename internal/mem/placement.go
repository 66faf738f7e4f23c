package mem

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
)

// PlacementKind names a bulk-data placement policy.
type PlacementKind int

const (
	// PlaceLocal homes data on the chip of the core that touches it —
	// Linux's default first-touch placement.
	PlaceLocal PlacementKind = iota
	// PlaceStriped interleaves pages across every chip, as
	// "numactl --interleave" does.
	PlaceStriped
	// PlaceHome homes all data on one explicit chip, the stock node-0
	// behavior of kernel pools (and the worst case for the interconnect).
	PlaceHome
)

// Placement is the policy half of the memory system's policy/mechanism
// split: the routing mechanism (Controllers.Transfer and the link graph)
// is fixed, and workloads pick where their bulk data is homed through one
// of these values instead of hard-coding a Transfer variant. The zero
// value is local placement, the default every application used before the
// option existed.
type Placement struct {
	Kind PlacementKind
	// Home is the target chip when Kind is PlaceHome.
	Home int
}

// PlacementHome returns an explicit-home placement on the given chip.
func PlacementHome(chip int) Placement {
	return Placement{Kind: PlaceHome, Home: chip}
}

// String renders the policy in the syntax ParsePlacementFor accepts.
func (pl Placement) String() string {
	switch pl.Kind {
	case PlaceStriped:
		return "striped"
	case PlaceHome:
		return fmt.Sprintf("home:%d", pl.Home)
	}
	return "local"
}

// ParsePlacementFor parses a placement policy: "local", "striped",
// "remote" (home on chip 0), or "home:N" for an explicit home chip, with
// N checked against machine m's chip count.
func ParsePlacementFor(m *topo.Machine, s string) (Placement, error) {
	switch s {
	case "", "local":
		return Placement{}, nil
	case "striped":
		return Placement{Kind: PlaceStriped}, nil
	case "remote":
		return PlacementHome(0), nil
	}
	if rest, ok := strings.CutPrefix(s, "home:"); ok {
		chip, err := strconv.Atoi(rest)
		if err != nil || chip < 0 || chip >= m.Chips {
			return Placement{}, fmt.Errorf("mem: bad home chip %q in home:N (want N in 0..%d)", rest, m.Chips-1)
		}
		return PlacementHome(chip), nil
	}
	return Placement{}, fmt.Errorf("mem: unknown placement %q (want local, striped, remote, or home:N)", s)
}

// TransferPlaced moves n bytes according to the given placement policy:
// through p's own controller for local, spread across every controller for
// striped, or to the policy's explicit home chip.
func (cs *Controllers) TransferPlaced(p *sim.Proc, pl Placement, n int64) {
	switch pl.Kind {
	case PlaceStriped:
		cs.TransferStriped(p, n)
	case PlaceHome:
		cs.Transfer(p, pl.Home, n)
	default:
		cs.TransferLocal(p, n)
	}
}
