package mem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// chipBytesPerSec is one chip's share of the default machine's aggregate
// DRAM rate: each of the eight Opterons has its own on-die memory
// controller, and the 51.5 GB/s maximum is only reachable when all eight
// stream at once.
const chipBytesPerSec = topo.DRAMMaxBytesPerSec / topo.Chips

func TestControllerRate(t *testing.T) {
	// Aggregate 8*24 bytes/sec => 24 bytes/sec per chip; a 24-byte local
	// transfer takes one second.
	cs := NewControllersRateFor(topo.Default(), 24*topo.Chips)
	e := sim.NewEngine(topo.New(1), 1)
	var end int64
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		cs.TransferLocal(p, 24)
		end = p.Now()
	})
	e.Run()
	if want := topo.SecToCycles(1.0); end != want {
		t.Errorf("24B at 24B/s/chip finished at %d cycles, want %d", end, want)
	}
}

func TestControllerSaturationQueues(t *testing.T) {
	// Two cores on chip 0 each move half the chip's per-second capacity at
	// once: demand above the rate must produce queueing delay (the second
	// transfer finishes about twice as late as the first).
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(2), 1)
	n := int64(chipBytesPerSec / 2)
	ends := make([]int64, 2)
	for c := 0; c < 2; c++ {
		c := c
		e.Spawn(c, "mover", 0, func(p *sim.Proc) {
			cs.Transfer(p, 0, n)
			ends[c] = p.Now()
		})
	}
	e.Run()
	lo, hi := ends[0], ends[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi < lo*3/2 {
		t.Errorf("saturated transfers finished at %d and %d; second should queue", lo, hi)
	}
	if cs.BytesRequested() != 2*n {
		t.Errorf("bytes requested = %d, want %d", cs.BytesRequested(), 2*n)
	}
}

func TestPerChipSaturationLeavesOtherChipsAlone(t *testing.T) {
	// Six cores hammer chip 0's controller while one core on chip 1 does a
	// single local transfer. The chip-1 transfer must take exactly its
	// unqueued service time: saturation is local to a controller.
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(12), 1)
	big := int64(chipBytesPerSec) // one second of chip-0 demand each
	small := int64(1 << 20)
	var chip1End int64
	for c := 0; c < 6; c++ {
		e.Spawn(c, "hog", 0, func(p *sim.Proc) {
			cs.Transfer(p, 0, big)
		})
	}
	e.Spawn(6, "bystander", 0, func(p *sim.Proc) { // core 6 = chip 1
		cs.TransferLocal(p, small)
		chip1End = p.Now()
	})
	e.Run()
	if want := cs.Chip(1).CyclesFor(small); chip1End != want {
		t.Errorf("idle-chip transfer finished at %d, want unqueued %d", chip1End, want)
	}
	util := cs.Utilization(e.Now())
	if util[0] < 0.95 {
		t.Errorf("chip 0 utilization = %.2f, want ~1.0 (saturated)", util[0])
	}
	for chip := 2; chip < topo.Chips; chip++ {
		if util[chip] != 0 {
			t.Errorf("chip %d utilization = %.2f, want 0 (idle)", chip, util[chip])
		}
	}
}

func TestCrossChipTransferPaysLinksAndHopLatency(t *testing.T) {
	m := topo.Default()
	cs := NewControllersFor(m)
	e := sim.NewEngine(topo.New(1), 1)
	n := int64(1 << 20)
	farChip := m.MaxHops() // on the ring, chip MaxHops is farthest from chip 0
	var local, far int64
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		start := p.Now()
		cs.Transfer(p, 0, n)
		local = p.Now() - start
		start = p.Now()
		cs.Transfer(p, farChip, n)
		far = p.Now() - start
	})
	e.Run()
	// The far transfer serially occupies each of the four links on its
	// route, then the remote controller, then pays the hop latency.
	want := local + m.HTLatency(m.HopDistance(0, farChip))
	for _, l := range m.Route(0, farChip) {
		want += cs.Link(l).CyclesFor(n)
	}
	if far != want {
		t.Errorf("far transfer took %d cycles, want %d (local %d + links + %d hops latency)",
			far, want, local, m.MaxHops())
	}
}

func TestTransferStripedTouchesEveryController(t *testing.T) {
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(1), 1)
	n := int64(topo.Chips*1024 + 7)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		cs.TransferStriped(p, n)
	})
	e.Run()
	var total int64
	for chip := 0; chip < topo.Chips; chip++ {
		got := cs.Chip(chip).BytesRequested()
		if got == 0 {
			t.Errorf("chip %d received no bytes from striped transfer", chip)
		}
		total += got
	}
	if total != n {
		t.Errorf("striped transfer moved %d bytes in total, want %d", total, n)
	}
}

// TestZeroHopTransferChargesNoLink pins the link layer's base property: a
// transfer homed on the requester's own chip never touches the
// interconnect.
func TestZeroHopTransferChargesNoLink(t *testing.T) {
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(48), 1)
	for c := 0; c < 48; c++ {
		e.Spawn(c, "local", 0, func(p *sim.Proc) {
			cs.TransferLocal(p, 1<<20)
			cs.Transfer(p, p.Chip(), 1<<20)
		})
	}
	e.Run()
	if got := cs.LinkBytesRequested(); got != 0 {
		t.Errorf("local transfers charged %d link bytes, want 0", got)
	}
	for l := 0; l < topo.Default().NumLinks(); l++ {
		if b := cs.Link(l).BytesRequested(); b != 0 {
			t.Errorf("link %d carried %d bytes from local transfers", l, b)
		}
	}
}

// TestLinkBytesEqualBytesTimesHops pins the charging rule: a transfer of n
// bytes over an h-hop route adds exactly n to each of the h links on the
// route, so total link bytes are n*h.
func TestLinkBytesEqualBytesTimesHops(t *testing.T) {
	for from := 0; from < topo.Chips; from++ {
		for home := 0; home < topo.Chips; home++ {
			cs := NewControllersFor(topo.Default())
			e := sim.NewEngine(topo.Default().WithCoresRR(topo.Chips), 1) // core i on chip i
			n := int64(1<<20 + 17)
			e.Spawn(from, "p", 0, func(p *sim.Proc) {
				cs.Transfer(p, home, n)
			})
			e.Run()
			hops := topo.Default().HopDistance(from, home)
			if got, want := cs.LinkBytesRequested(), n*int64(hops); got != want {
				t.Errorf("%d->%d: link bytes %d, want %d (n x %d hops)", from, home, got, want, hops)
			}
			for _, l := range topo.Default().Route(from, home) {
				if b := cs.Link(l).BytesRequested(); b != n {
					t.Errorf("%d->%d: on-route link %d carried %d bytes, want %d", from, home, l, b, n)
				}
			}
		}
	}
}

// TestTransferStripedMatchesSequentialTransfers extends the batch-vs-
// sequential equivalence contract to the link layer: one striped transfer
// must cost the same cycles and charge the same per-link and per-chip
// bytes as the equivalent per-chip Transfer calls issued one at a time.
func TestTransferStripedMatchesSequentialTransfers(t *testing.T) {
	n := int64(topo.Chips*4096 + 13)
	run := func(f func(cs *Controllers, p *sim.Proc)) (*Controllers, int64) {
		cs := NewControllersFor(topo.Default())
		e := sim.NewEngine(topo.New(48), 1)
		var end int64
		e.Spawn(20, "p", 0, func(p *sim.Proc) { // core 20 = chip 3
			f(cs, p)
			end = p.Now()
		})
		e.Run()
		return cs, end
	}
	csA, endA := run(func(cs *Controllers, p *sim.Proc) {
		cs.TransferStriped(p, n)
	})
	csB, endB := run(func(cs *Controllers, p *sim.Proc) {
		// The documented striped layout: equal slices per chip starting at
		// the local chip, remainder landing locally.
		slice := n / int64(topo.Chips)
		rem := n - slice*int64(topo.Chips)
		me := p.Chip()
		for i := 0; i < topo.Chips; i++ {
			bytes := slice
			if i == 0 {
				bytes += rem
			}
			cs.Transfer(p, (me+i)%topo.Chips, bytes)
		}
	})
	if endA != endB {
		t.Errorf("striped transfer took %d cycles, sequential equivalent %d", endA, endB)
	}
	for chip := 0; chip < topo.Chips; chip++ {
		if a, b := csA.Chip(chip).BytesRequested(), csB.Chip(chip).BytesRequested(); a != b {
			t.Errorf("chip %d: striped charged %d bytes, sequential %d", chip, a, b)
		}
	}
	for l := 0; l < topo.Default().NumLinks(); l++ {
		if a, b := csA.Link(l).BytesRequested(), csB.Link(l).BytesRequested(); a != b {
			t.Errorf("link %d: striped charged %d bytes, sequential %d", l, a, b)
		}
	}
}

// TestDMAWriteChargesRouteFromHub verifies device DMA enters at the I/O
// hub chip and charges the links from there to the buffer's home.
func TestDMAWriteChargesRouteFromHub(t *testing.T) {
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(48), 1)
	home := 3
	n := int64(1 << 16)
	e.Spawn(47, "driver", 0, func(p *sim.Proc) { // driver core far from the hub
		cs.DMAWrite(p, home, n)
	})
	e.Run()
	route := topo.Default().Route(topo.IOHubChip, home)
	if got, want := cs.LinkBytesRequested(), n*int64(len(route)); got != want {
		t.Errorf("DMA charged %d link bytes, want %d (route %v from hub)", got, want, route)
	}
	for _, l := range route {
		if b := cs.Link(l).BytesRequested(); b != n {
			t.Errorf("hub-route link %d carried %d bytes, want %d", l, b, n)
		}
	}
	if b := cs.Chip(home).BytesRequested(); b != n {
		t.Errorf("home controller received %d bytes, want %d", b, n)
	}
	// Zero-hop DMA (buffer homed on the hub chip) charges no link.
	cs2 := NewControllersFor(topo.Default())
	e2 := sim.NewEngine(topo.New(1), 1)
	e2.Spawn(0, "driver", 0, func(p *sim.Proc) { cs2.DMAWrite(p, topo.IOHubChip, n) })
	e2.Run()
	if got := cs2.LinkBytesRequested(); got != 0 {
		t.Errorf("hub-homed DMA charged %d link bytes, want 0", got)
	}
}

// TestDMAReadChargesRouteToHub verifies the transmit half of device DMA:
// the card reading a send buffer charges the buffer's home controller and
// the links from the home chip to the I/O hub — the mirror image of
// DMAWrite.
func TestDMAReadChargesRouteToHub(t *testing.T) {
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(48), 1)
	home := 5
	n := int64(1 << 16)
	e.Spawn(47, "driver", 0, func(p *sim.Proc) {
		cs.DMARead(p, home, n)
	})
	e.Run()
	route := topo.Default().Route(home, topo.IOHubChip)
	if got, want := cs.LinkBytesRequested(), n*int64(len(route)); got != want {
		t.Errorf("DMA read charged %d link bytes, want %d (route %v to hub)", got, want, route)
	}
	for _, l := range route {
		if b := cs.Link(l).BytesRequested(); b != n {
			t.Errorf("hub-route link %d carried %d bytes, want %d", l, b, n)
		}
	}
	if b := cs.Chip(home).BytesRequested(); b != n {
		t.Errorf("home controller served %d bytes, want %d", b, n)
	}
	// A hub-homed send buffer (stock node-0 pools) charges no link.
	cs2 := NewControllersFor(topo.Default())
	e2 := sim.NewEngine(topo.New(1), 1)
	e2.Spawn(0, "driver", 0, func(p *sim.Proc) { cs2.DMARead(p, topo.IOHubChip, n) })
	e2.Run()
	if got := cs2.LinkBytesRequested(); got != 0 {
		t.Errorf("hub-homed DMA read charged %d link bytes, want 0", got)
	}
	if b := cs2.Chip(topo.IOHubChip).BytesRequested(); b != n {
		t.Errorf("hub-homed DMA read moved %d controller bytes, want %d", b, n)
	}
}

func TestPlacementParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Placement
	}{
		{"", Placement{}},
		{"local", Placement{}},
		{"striped", Placement{Kind: PlaceStriped}},
		{"remote", PlacementHome(0)},
		{"home:5", PlacementHome(5)},
	}
	for _, c := range cases {
		got, err := ParsePlacementFor(topo.Default(), c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePlacementFor(default, %q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"nope", "home:", "home:8", "home:-1", "home:x"} {
		if _, err := ParsePlacementFor(topo.Default(), bad); err == nil {
			t.Errorf("ParsePlacementFor(default, %q) did not error", bad)
		}
	}
	for _, pl := range []Placement{{}, {Kind: PlaceStriped}, PlacementHome(6)} {
		back, err := ParsePlacementFor(topo.Default(), pl.String())
		if err != nil || back != pl {
			t.Errorf("round trip %v -> %q -> %v, %v", pl, pl.String(), back, err)
		}
	}
}

// TestTransferPlacedDispatch checks each policy routes bytes where its
// Transfer variant would.
func TestTransferPlacedDispatch(t *testing.T) {
	run := func(pl Placement) *Controllers {
		cs := NewControllersFor(topo.Default())
		e := sim.NewEngine(topo.New(48), 1)
		e.Spawn(10, "p", 0, func(p *sim.Proc) { // chip 1
			cs.TransferPlaced(p, pl, 1<<20)
		})
		e.Run()
		return cs
	}
	if cs := run(Placement{}); cs.Chip(1).BytesRequested() != 1<<20 || cs.LinkBytesRequested() != 0 {
		t.Error("local placement should charge only the local chip")
	}
	cs := run(Placement{Kind: PlaceStriped})
	for chip := 0; chip < topo.Chips; chip++ {
		if cs.Chip(chip).BytesRequested() == 0 {
			t.Errorf("striped placement left chip %d idle", chip)
		}
	}
	cs = run(PlacementHome(6))
	if cs.Chip(6).BytesRequested() != 1<<20 {
		t.Error("home placement should charge the explicit home chip")
	}
	if got, want := cs.LinkBytesRequested(), int64(1<<20)*int64(topo.Default().HopDistance(1, 6)); got != want {
		t.Errorf("home placement charged %d link bytes, want %d", got, want)
	}
}

func TestTransferZeroBytesIsFree(t *testing.T) {
	cs := NewControllersFor(topo.Default())
	e := sim.NewEngine(topo.New(1), 1)
	var end int64
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		cs.TransferLocal(p, 0)
		cs.TransferStriped(p, 0)
		end = p.Now()
	})
	e.Run()
	if end != 0 {
		t.Errorf("zero-byte transfer advanced time to %d", end)
	}
}
