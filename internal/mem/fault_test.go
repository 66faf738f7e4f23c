package mem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestScaleControllerThrottlesRate(t *testing.T) {
	// Halving chip 0's controller doubles a local transfer's time; other
	// chips keep their full rate.
	cs := NewControllersRateFor(topo.Default(), 24*topo.Chips)
	e := sim.NewEngine(topo.New(48), 1)
	cs.ScaleController(0, 0.5)
	ends := make([]int64, 2)
	e.Spawn(0, "slow", 0, func(p *sim.Proc) {
		cs.TransferLocal(p, 24)
		ends[0] = p.Now()
	})
	e.Spawn(6, "fast", 0, func(p *sim.Proc) { // core 6 lives on chip 1
		cs.TransferLocal(p, 24)
		ends[1] = p.Now()
	})
	e.Run()
	if want := topo.SecToCycles(2.0); ends[0] != want {
		t.Errorf("throttled chip-0 transfer finished at %d, want %d", ends[0], want)
	}
	if want := topo.SecToCycles(1.0); ends[1] != want {
		t.Errorf("healthy chip-1 transfer finished at %d, want %d", ends[1], want)
	}
	// Restoring the rated bandwidth undoes the throttle exactly.
	cs.ScaleController(0, 1)
	e2 := sim.NewEngine(topo.New(1), 1)
	var end int64
	e2.Spawn(0, "p", 0, func(p *sim.Proc) {
		cs.TransferLocal(p, 24)
		end = p.Now() // resource high-water carries over; measure the delta
	})
	e2.Run()
	if delta := end - ends[0]; delta != topo.SecToCycles(1.0) {
		t.Errorf("restored transfer took %d cycles, want %d", delta, topo.SecToCycles(1.0))
	}
}

func TestScaleRejectsNonPositive(t *testing.T) {
	cs := NewControllersFor(topo.Default())
	defer func() {
		if recover() == nil {
			t.Error("ScaleLink(0, 0) did not panic")
		}
	}()
	cs.ScaleLink(0, 0)
}

func TestSetRoutesDetoursTransfers(t *testing.T) {
	// With link 0 dead, a chip-1-homed transfer from chip 0 must traverse
	// the seven surviving links instead of the one direct link.
	rt, err := topo.Default().NewRouteTable([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	run := func(routed *topo.RouteTable) (linkBytes int64, end int64) {
		cs := NewControllersFor(topo.Default())
		cs.SetRoutes(routed)
		e := sim.NewEngine(topo.New(1), 1)
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			cs.Transfer(p, 1, 4096) // homed on chip 1
			end = p.Now()
		})
		e.Run()
		return cs.LinkBytesRequested(), end
	}
	directBytes, directEnd := run(nil) // nil restores the default table
	deadBytes, deadEnd := run(rt)
	if directBytes != 4096 {
		t.Errorf("healthy route charged %d link bytes, want 4096", directBytes)
	}
	if want := int64(7 * 4096); deadBytes != want {
		t.Errorf("detour charged %d link bytes, want %d", deadBytes, want)
	}
	if deadEnd <= directEnd {
		t.Errorf("detour finished at %d, direct at %d; detour must cost more", deadEnd, directEnd)
	}
}

func TestDMAFollowsRoutes(t *testing.T) {
	// DMA from chip 7's memory to the I/O hub (chip 0) crosses one link
	// healthy; with that link dead it must detour the long way.
	rt, err := topo.Default().NewRouteTable([]int{7}) // link 7 joins chips 7 and 0
	if err != nil {
		t.Fatal(err)
	}
	run := func(routed *topo.RouteTable) int64 {
		cs := NewControllersFor(topo.Default())
		cs.SetRoutes(routed)
		e := sim.NewEngine(topo.New(48), 1)
		e.Spawn(42, "dma", 0, func(p *sim.Proc) { // a chip-7 core
			cs.DMARead(p, 7, 4096)
		})
		e.Run()
		return cs.LinkBytesRequested()
	}
	if got := run(nil); got != 4096 {
		t.Errorf("healthy DMA charged %d link bytes, want 4096", got)
	}
	if got, want := run(rt), int64(7*4096); got != want {
		t.Errorf("detoured DMA charged %d link bytes, want %d", got, want)
	}
}
