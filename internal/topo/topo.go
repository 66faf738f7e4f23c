// Package topo models the hardware topology of the 48-core machine used in
// the paper: a Tyan Thunder S4985 board with eight 2.4 GHz 6-core AMD
// Opteron 8431 chips, each chip with its own DRAM node, connected by a
// HyperTransport interconnect (§5.1).
//
// All latencies are in CPU cycles at 2.4 GHz and are taken directly from the
// paper: L1 3 cycles, L2 14 cycles, on-chip shared L3 28 cycles, local DRAM
// 122 cycles, and up to 503 cycles for DRAM of the farthest chip.
package topo

import "fmt"

// Machine geometry constants for the paper's evaluation host.
const (
	// MaxCores is the total number of cores on the machine.
	MaxCores = 48
	// CoresPerChip is the number of cores on one Opteron 8431 chip.
	CoresPerChip = 6
	// Chips is the number of processor chips (= NUMA nodes).
	Chips = MaxCores / CoresPerChip
	// ClockHz is the core clock frequency (2.4 GHz). It is the clock of
	// every machine profile: all cycle/time conversions use it.
	ClockHz = 2_400_000_000
	// CacheLineBytes is the coherence granularity.
	CacheLineBytes = 64
)

// Cache and memory latencies in cycles (§5.1).
const (
	LatL1 = 3
	LatL2 = 14
	LatL3 = 28
	// LatDRAMLocal is the latency for a core to read its local DRAM.
	LatDRAMLocal = 122
	// LatDRAMFar is the latency to read DRAM of the farthest chip.
	LatDRAMFar = 503
)

// Capacity parameters.
const (
	// L3Bytes is the per-chip shared L3 capacity usable by applications.
	// The chip has 6 MB of L3 of which 1 MB is consumed by the HT Assist
	// probe filter (§5.1), leaving 5 MB.
	L3Bytes = 5 << 20
	// L2Bytes is the per-core private L2 capacity.
	L2Bytes = 512 << 10
	// DRAMPerChipBytes is the local off-chip DRAM per chip (8 GB).
	DRAMPerChipBytes = 8 << 30
	// DRAMMaxBytesPerSec is the maximum aggregate DRAM throughput
	// achievable, measured by the paper's microbenchmarks (§5.8):
	// 51.5 GByte/second.
	DRAMMaxBytesPerSec = 51.5 * (1 << 30)
)

// New returns the default machine (the paper's host) with n enabled cores
// packed onto the fewest chips (§5.1: "Experiments that use fewer than 48
// cores run with the other cores entirely disabled"). It panics if n is
// out of range; configurations are static test inputs, so an invalid
// count is a programming error, not a runtime condition.
func New(n int) *Machine { return defaultMachine.WithCores(n) }

// Chip returns the chip (NUMA node) that enabled core c sits on.
func (m *Machine) Chip(c int) int {
	if c < 0 || c >= m.NCores {
		panic(fmt.Sprintf("topo: core %d out of range [0,%d)", c, m.NCores))
	}
	if m.RoundRobin {
		return c % m.Chips
	}
	return c / m.CoresPerChip
}

// ChipsInUse returns the number of chips with at least one enabled core.
func (m *Machine) ChipsInUse() int {
	if m.RoundRobin {
		if m.NCores >= m.Chips {
			return m.Chips
		}
		return m.NCores
	}
	return (m.NCores + m.CoresPerChip - 1) / m.CoresPerChip
}

// CoresOnChip returns how many enabled cores sit on the given chip.
func (m *Machine) CoresOnChip(chip int) int {
	n := 0
	for c := 0; c < m.NCores; c++ {
		if m.Chip(c) == chip {
			n++
		}
	}
	return n
}

// HT interconnect parameters.
const (
	// HTLinkBytesPerSec is the effective payload bandwidth of one
	// HyperTransport link between adjacent chips: a 16-bit link at HT
	// speeds delivers ~4 GB/s of usable data per direction after protocol
	// overhead. The eight-link ring therefore tops out at 32 GB/s of
	// aggregate cross-chip traffic — below the 51.5 GB/s the eight DRAM
	// controllers can serve, which is why placement that forces traffic
	// onto the interconnect saturates links while controllers sit idle.
	HTLinkBytesPerSec = 4 * (1 << 30)
	// IOHubChip is the chip the I/O hub (and its NICs) hangs off: device
	// DMA enters the interconnect at chip 0 and traverses the links to
	// the buffer's home chip.
	IOHubChip = 0
)

// CyclesPerSec returns the clock rate as a float for time conversions.
func CyclesPerSec() float64 { return float64(ClockHz) }

// CyclesToSec converts a cycle count to seconds of virtual time.
func CyclesToSec(cycles int64) float64 { return float64(cycles) / float64(ClockHz) }

// SecToCycles converts seconds to cycles.
func SecToCycles(s float64) int64 { return int64(s * float64(ClockHz)) }

// MicrosToCycles converts microseconds to cycles (2.4 cycles per ns).
func MicrosToCycles(us float64) int64 { return int64(us * float64(ClockHz) / 1e6) }

// CyclesToMicros converts cycles to microseconds.
func CyclesToMicros(cycles int64) float64 { return float64(cycles) * 1e6 / float64(ClockHz) }
