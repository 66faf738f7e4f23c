package topo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fprint"
)

// LinkSpec describes one interconnect link joining chips A and B.
// BytesPerSec overrides the machine's default link rate when non-zero.
type LinkSpec struct {
	A, B        int
	BytesPerSec float64
}

// hwDerived caches everything computed from a machine's hardware
// description: the resolved link list, per-chip adjacency in a
// deterministic order, the healthy routing, the graph diameter, an
// unordered-pair link lookup, per-chip hop-distance chip masks, and the
// machine's cost fingerprint. Machines produced by WithCores share one
// hwDerived, so route tables are built once per hardware description,
// not once per core count.
type hwDerived struct {
	links    []LinkSpec
	adj      [][]adjHop // per chip, neighbor exploration order for BFS
	healthy  *RouteTable
	diameter int
	pairLink map[[2]int]int
	distMask [][]uint64 // [chip][d]: bitmask of chips at hop distance d
	fp       string
}

type adjHop struct{ chip, link int }

// Machine describes a simulated host: the hardware description (chip
// count, cores per chip, cache/DRAM latencies and capacities,
// per-chip DRAM rates, the interconnect link graph with per-link rates,
// and the I/O-hub chip) plus the active configuration (how many cores
// are enabled and how they are placed on chips). Every profile runs at
// the one clock ClockHz. The zero hardware fields are invalid; build
// machines with New (the paper's default host), Lookup (a registered
// profile), or a full literal followed by any method call (the first
// call validates and finalizes).
//
// The paper's evaluation host — the Tyan Thunder S4985 with eight 6-core
// 2.4 GHz AMD Opteron 8431 chips on a HyperTransport ring (§5.1) — is
// the default instance; the package-level constants in topo.go are that
// machine's values.
type Machine struct {
	// Name identifies the profile ("s4985" is the default machine).
	Name string

	// Chips is the number of processor chips (= NUMA nodes), at most 64.
	Chips int
	// CoresPerChip is the number of cores on one chip.
	CoresPerChip int
	// CacheLineBytes is the coherence granularity.
	CacheLineBytes int64

	// Cache and memory latencies in cycles.
	LatL1, LatL2, LatL3      int64
	LatDRAMLocal, LatDRAMFar int64

	// Capacities.
	L3Bytes, L2Bytes, DRAMPerChipBytes int64

	// DRAMMaxBytesPerSec is the aggregate DRAM throughput with every
	// chip's controller streaming at once; one chip's share is
	// DRAMMaxBytesPerSec / Chips.
	DRAMMaxBytesPerSec float64
	// LinkBytesPerSec is the default payload bandwidth of one
	// interconnect link (per LinkSpec.BytesPerSec to override per link).
	LinkBytesPerSec float64
	// Links is the interconnect graph. nil means the canonical ring:
	// link l joins chip l and chip (l+1) mod Chips.
	Links []LinkSpec
	// IOHubChip is the chip device DMA enters the interconnect at.
	IOHubChip int

	// NCores is the number of enabled cores (1..Chips*CoresPerChip).
	NCores int
	// RoundRobin selects the core->chip placement policy. When false,
	// enabled cores fill chips in order ("packed", the default used by
	// most experiments). When true, enabled cores are spread evenly
	// across chips, as in the pedsort "Procs RR" configuration (§5.7).
	RoundRobin bool

	hw *hwDerived
}

// hwd returns the derived hardware state, building it on first use for
// machines constructed as raw literals. Registered profiles and every
// machine derived from them are built eagerly and share one hwDerived.
func (m *Machine) hwd() *hwDerived {
	if m.hw == nil {
		m.hw = buildHW(m)
	}
	return m.hw
}

// Build validates the hardware description and computes the derived
// routing state. It is called automatically by Register and by the
// first method that needs derived state; calling it explicitly surfaces
// description errors early. Build panics on an invalid description —
// machines are static configuration, so an invalid one is a programming
// error.
func (m *Machine) Build() *Machine {
	m.hwd()
	return m
}

func buildHW(m *Machine) *hwDerived {
	if m.Chips < 1 || m.Chips > 64 {
		panic(fmt.Sprintf("topo: machine %q: %d chips out of range [1,64]", m.Name, m.Chips))
	}
	if m.CoresPerChip < 1 {
		panic(fmt.Sprintf("topo: machine %q: cores/chip %d < 1", m.Name, m.CoresPerChip))
	}
	if m.IOHubChip < 0 || m.IOHubChip >= m.Chips {
		panic(fmt.Sprintf("topo: machine %q: I/O hub chip %d out of range [0,%d)", m.Name, m.IOHubChip, m.Chips))
	}
	hw := &hwDerived{pairLink: map[[2]int]int{}}
	hw.links = m.Links
	if hw.links == nil && m.Chips > 1 {
		// Canonical ring: link l joins chip l and chip (l+1) mod Chips.
		hw.links = make([]LinkSpec, m.Chips)
		for l := 0; l < m.Chips; l++ {
			hw.links[l] = LinkSpec{A: l, B: (l + 1) % m.Chips}
		}
	}
	for i := range hw.links {
		if hw.links[i].BytesPerSec == 0 {
			hw.links[i].BytesPerSec = m.LinkBytesPerSec
		}
	}
	hw.adj = make([][]adjHop, m.Chips)
	for l, ln := range hw.links {
		if ln.A < 0 || ln.A >= m.Chips || ln.B < 0 || ln.B >= m.Chips || ln.A == ln.B {
			panic(fmt.Sprintf("topo: machine %q: link %d joins chips %d-%d (chips are 0..%d)", m.Name, l, ln.A, ln.B, m.Chips-1))
		}
		pair := linkPair(ln.A, ln.B)
		if _, dup := hw.pairLink[pair]; !dup {
			hw.pairLink[pair] = l
		}
	}
	// Deterministic BFS neighbor order: for each chip, links where it is
	// endpoint A first (ascending link index), then links where it is
	// endpoint B. On the canonical ring this explores the
	// increasing-chip direction first, reproducing the historical
	// tie-break (the 4-hop antipode routes toward increasing chips).
	for l, ln := range hw.links {
		hw.adj[ln.A] = append(hw.adj[ln.A], adjHop{ln.B, l})
	}
	for l, ln := range hw.links {
		hw.adj[ln.B] = append(hw.adj[ln.B], adjHop{ln.A, l})
	}
	healthy, err := bfsRoutes(m.Chips, hw.adj, nil, nil)
	if err != nil {
		panic(fmt.Sprintf("topo: machine %q: %v", m.Name, err))
	}
	hw.healthy = healthy
	for a := 0; a < m.Chips; a++ {
		for b := 0; b < m.Chips; b++ {
			if h := healthy.hops[a][b]; h > hw.diameter {
				hw.diameter = h
			}
		}
	}
	hw.distMask = make([][]uint64, m.Chips)
	for a := 0; a < m.Chips; a++ {
		hw.distMask[a] = make([]uint64, hw.diameter+1)
		for b := 0; b < m.Chips; b++ {
			hw.distMask[a][healthy.hops[a][b]] |= 1 << uint(b)
		}
	}
	hw.fp = machineFingerprint(m, hw)
	return hw
}

func linkPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// machineFingerprint renders the machine's cost description. For the
// default host it keeps the keys and renderings of the historical
// constant-based topo fingerprint, so warm sweep caches survive the
// machine parameterization; topo_test pins its value. The clock is the
// ClockHz constant on every profile. Non-ring link graphs and
// heterogeneous link rates contribute extra keys.
func machineFingerprint(m *Machine, hw *hwDerived) string {
	f := fprint.New("topo").
		C("MaxCores", int64(m.Chips*m.CoresPerChip)).
		C("CoresPerChip", int64(m.CoresPerChip)).
		C("ClockHz", int64(ClockHz)).
		C("CacheLineBytes", m.CacheLineBytes).
		C("LatL1", m.LatL1).
		C("LatL2", m.LatL2).
		C("LatL3", m.LatL3).
		C("LatDRAMLocal", m.LatDRAMLocal).
		C("LatDRAMFar", m.LatDRAMFar).
		C("L3Bytes", m.L3Bytes).
		C("L2Bytes", m.L2Bytes).
		C("DRAMPerChipBytes", m.DRAMPerChipBytes).
		C("DRAMMaxBytesPerSec", m.DRAMMaxBytesPerSec).
		C("HTLinkBytesPerSec", int64(m.LinkBytesPerSec)).
		C("NumLinks", int64(len(hw.links))).
		C("IOHubChip", int64(m.IOHubChip)).
		C("MaxHops", int64(hw.diameter))
	if m.Links != nil {
		var sb strings.Builder
		for i, ln := range hw.links {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d-%d", ln.A, ln.B)
			if ln.BytesPerSec != m.LinkBytesPerSec {
				fmt.Fprintf(&sb, "@%v", ln.BytesPerSec)
			}
		}
		f = f.C("LinkGraph", sb.String())
	}
	return f.Sum()
}

// MaxCores returns the machine's total core count (every chip fully
// populated).
func (m *Machine) MaxCores() int { return m.Chips * m.CoresPerChip }

// WithCores returns a copy of the machine with n enabled cores packed
// onto the fewest chips. The copy shares the machine's derived routing
// state. It panics if n is out of range.
func (m *Machine) WithCores(n int) *Machine {
	m.hwd()
	if n < 1 || n > m.MaxCores() {
		panic(fmt.Sprintf("topo: core count %d out of range [1,%d]", n, m.MaxCores()))
	}
	c := *m
	c.NCores = n
	c.RoundRobin = false
	return &c
}

// WithCoresRR is WithCores with the enabled cores spread round-robin
// across every chip, the placement the paper uses for pedsort and Metis.
func (m *Machine) WithCoresRR(n int) *Machine {
	c := m.WithCores(n)
	c.RoundRobin = true
	return c
}

// HopDistance returns the number of interconnect hops between two chips
// under the machine's healthy routing.
func (m *Machine) HopDistance(a, b int) int { return m.hwd().healthy.Hops(a, b) }

// MaxHops returns the healthy link graph's diameter: the largest hop
// distance between any two chips.
func (m *Machine) MaxHops() int { return m.hwd().diameter }

// HTLatency returns the interconnect latency of traversing h hops,
// interpolated from the machine's DRAM latency spread: the farthest chip
// (MaxHops away) adds LatDRAMFar-LatDRAMLocal cycles over local.
// Multiply before dividing, so the MaxHops endpoint lands exactly on the
// spread.
func (m *Machine) HTLatency(h int) int64 {
	d := m.hwd().diameter
	if d == 0 {
		return 0
	}
	return int64(h) * (m.LatDRAMFar - m.LatDRAMLocal) / int64(d)
}

// DRAMLatency returns the cycle cost for a core on chip `from` to read a
// line homed in the DRAM of chip `home`.
func (m *Machine) DRAMLatency(from, home int) int64 {
	return m.LatDRAMLocal + m.HTLatency(m.HopDistance(from, home))
}

// DRAMLatencyAtHops returns the DRAM read cost at an explicit hop
// distance, for callers that already resolved the distance.
func (m *Machine) DRAMLatencyAtHops(h int) int64 {
	return m.LatDRAMLocal + m.HTLatency(h)
}

// RemoteCacheLatency returns the cycle cost for a core on chip `from` to
// fetch a line that is dirty in a cache on chip `owner`: the owner
// chip's DRAM latency, with a floor of the L3 latency for same-chip
// transfers (§4.1).
func (m *Machine) RemoteCacheLatency(from, owner int) int64 {
	if from == owner {
		return m.LatL3
	}
	return m.DRAMLatency(from, owner)
}

// NumLinks returns the number of interconnect links.
func (m *Machine) NumLinks() int { return len(m.hwd().links) }

// LinkEnds returns the two chips link l joins.
func (m *Machine) LinkEnds(l int) (a, b int) {
	links := m.hwd().links
	if l < 0 || l >= len(links) {
		panic(fmt.Sprintf("topo: link %d out of range [0,%d)", l, len(links)))
	}
	return links[l].A, links[l].B
}

// LinkRate returns link l's payload bandwidth in bytes per second.
func (m *Machine) LinkRate(l int) float64 {
	links := m.hwd().links
	if l < 0 || l >= len(links) {
		panic(fmt.Sprintf("topo: link %d out of range [0,%d)", l, len(links)))
	}
	return links[l].BytesPerSec
}

// LinkBetween returns the index of the link joining chips a and b in
// either orientation, or false if they are not adjacent.
func (m *Machine) LinkBetween(a, b int) (int, bool) {
	l, ok := m.hwd().pairLink[linkPair(a, b)]
	return l, ok
}

// Route returns the link indices on the deterministic shortest path from
// chip a to chip b under the healthy routing, in traversal order.
// Callers must not mutate the returned slice.
func (m *Machine) Route(a, b int) []int { return m.hwd().healthy.Route(a, b) }

// DefaultRoutes returns the machine's healthy routing table.
func (m *Machine) DefaultRoutes() *RouteTable { return m.hwd().healthy }

// NewRouteTable returns a routing over the machine's link graph with the
// given links removed (by link index, see LinkEnds). Paths are
// breadth-first shortest routes over the surviving links with a
// deterministic tie-break (each chip's adjacency order), so two engines
// building a table from the same dead set route identically. An error is
// returned if the dead links partition the interconnect — some chip pair
// would have no path — or a link index is out of range. No dead links
// returns the shared healthy table.
func (m *Machine) NewRouteTable(dead []int) (*RouteTable, error) {
	hw := m.hwd()
	for _, l := range dead {
		if l < 0 || l >= len(hw.links) {
			return nil, fmt.Errorf("topo: dead link %d out of range [0,%d)", l, len(hw.links))
		}
	}
	if len(dead) == 0 {
		return hw.healthy, nil
	}
	deadSet := map[int]bool{}
	for _, l := range dead {
		deadSet[l] = true
	}
	sorted := append([]int(nil), dead...)
	sort.Ints(sorted)
	return bfsRoutes(m.Chips, hw.adj, deadSet, sorted)
}

// SharersAtDistance masks the chip set `chips` down to the chips at
// healthy hop distance d from the given chip. Chip sets are bitmasks
// (chip c is bit c), which the 64-chip machine cap guarantees fit.
func (m *Machine) SharersAtDistance(chip, d int, chips uint64) uint64 {
	hw := m.hwd()
	if d > hw.diameter {
		return 0
	}
	return hw.distMask[chip][d] & chips
}

// Fingerprint returns the canonical fingerprint of the machine's
// latency, bandwidth, and geometry description — the machine's identity
// as a cost domain for the sweep-point cache, which keys every
// experiment's stored points on the fingerprints of the cost domains it
// depends on, so retuning a machine invalidates exactly the cached
// figures that could have changed.
func (m *Machine) Fingerprint() string { return m.hwd().fp }

// IsDefault reports whether this machine shares the default profile's
// hardware description (any core count / placement).
func (m *Machine) IsDefault() bool { return m.hwd() == defaultMachine.hw }

// ---- Profile registry ----

var profiles = map[string]*Machine{}

// Register validates, finalizes, and registers a machine profile under
// its Name, with every core enabled. Registering a duplicate name
// panics; profiles are static configuration.
func Register(m *Machine) *Machine {
	if m.Name == "" {
		panic("topo: Register: machine has no name")
	}
	if _, dup := profiles[m.Name]; dup {
		panic(fmt.Sprintf("topo: Register: duplicate machine profile %q", m.Name))
	}
	if m.NCores == 0 {
		m.NCores = m.MaxCores()
	}
	m.Build()
	profiles[m.Name] = m
	return m
}

// Lookup returns the registered profile with the given name (every core
// enabled); derive sweep configurations with WithCores.
func Lookup(name string) (*Machine, bool) {
	m, ok := profiles[name]
	return m, ok
}

// Names returns the registered profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns the default machine profile: the paper's Tyan S4985
// host with every core enabled.
func Default() *Machine { return defaultMachine }

// defaultMachine is the paper's evaluation host (§5.1). Its fields are
// the package-level constants; topo_test pins its fingerprint by value.
var defaultMachine = Register(&Machine{
	Name:               "s4985",
	Chips:              Chips,
	CoresPerChip:       CoresPerChip,
	CacheLineBytes:     CacheLineBytes,
	LatL1:              LatL1,
	LatL2:              LatL2,
	LatL3:              LatL3,
	LatDRAMLocal:       LatDRAMLocal,
	LatDRAMFar:         LatDRAMFar,
	L3Bytes:            L3Bytes,
	L2Bytes:            L2Bytes,
	DRAMPerChipBytes:   DRAMPerChipBytes,
	DRAMMaxBytesPerSec: DRAMMaxBytesPerSec,
	LinkBytesPerSec:    HTLinkBytesPerSec,
	IOHubChip:          IOHubChip,
})

// ring16 doubles the paper's ring: sixteen 6-core chips on one
// HyperTransport ring. Per-chip DRAM and per-link rates match the
// paper's host, so the aggregate DRAM envelope doubles while the
// farthest chip moves to 8 hops (the per-hop latency stays the paper's
// ~95 cycles, so LatDRAMFar grows accordingly).
var _ = Register(&Machine{
	Name:               "ring16",
	Chips:              16,
	CoresPerChip:       CoresPerChip,
	CacheLineBytes:     CacheLineBytes,
	LatL1:              LatL1,
	LatL2:              LatL2,
	LatL3:              LatL3,
	LatDRAMLocal:       LatDRAMLocal,
	LatDRAMFar:         LatDRAMLocal + 8*(LatDRAMFar-LatDRAMLocal)/4,
	L3Bytes:            L3Bytes,
	L2Bytes:            L2Bytes,
	DRAMPerChipBytes:   DRAMPerChipBytes,
	DRAMMaxBytesPerSec: 2 * DRAMMaxBytesPerSec,
	LinkBytesPerSec:    HTLinkBytesPerSec,
	IOHubChip:          IOHubChip,
})

// mesh4x4 keeps sixteen 6-core chips but wires them as a 4x4 2D torus
// (chip y*4+x links to its +x and +y neighbors with wraparound), halving
// the diameter to 4 and doubling the bisection relative to ring16.
var _ = Register(&Machine{
	Name:               "mesh4x4",
	Chips:              16,
	CoresPerChip:       CoresPerChip,
	CacheLineBytes:     CacheLineBytes,
	LatL1:              LatL1,
	LatL2:              LatL2,
	LatL3:              LatL3,
	LatDRAMLocal:       LatDRAMLocal,
	LatDRAMFar:         LatDRAMFar,
	L3Bytes:            L3Bytes,
	L2Bytes:            L2Bytes,
	DRAMPerChipBytes:   DRAMPerChipBytes,
	DRAMMaxBytesPerSec: 2 * DRAMMaxBytesPerSec,
	LinkBytesPerSec:    HTLinkBytesPerSec,
	Links:              torusLinks(4, 4),
	IOHubChip:          IOHubChip,
})

// big192 is a modern 192-core server: eight 24-core chips on a ring with
// per-chip DRAM bandwidth and cache capacity scaled up ~4x over the 2009
// host, and a fatter interconnect. Latencies stay the paper's values so
// collapse-onset shifts are attributable to core count and bandwidth,
// not retimed memory.
var _ = Register(&Machine{
	Name:               "big192",
	Chips:              Chips,
	CoresPerChip:       24,
	CacheLineBytes:     CacheLineBytes,
	LatL1:              LatL1,
	LatL2:              LatL2,
	LatL3:              LatL3,
	LatDRAMLocal:       LatDRAMLocal,
	LatDRAMFar:         LatDRAMFar,
	L3Bytes:            32 << 20,
	L2Bytes:            1 << 20,
	DRAMPerChipBytes:   64 << 30,
	DRAMMaxBytesPerSec: 4 * DRAMMaxBytesPerSec,
	LinkBytesPerSec:    8 * HTLinkBytesPerSec,
	IOHubChip:          IOHubChip,
})

// torusLinks wires w*h chips as a 2D torus: chip y*w+x links to
// (x+1 mod w, y) and (x, y+1 mod h), +x links listed before +y per chip
// so routing explores rows first, deterministically.
func torusLinks(w, h int) []LinkSpec {
	var links []LinkSpec
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := y*w + x
			links = append(links, LinkSpec{A: c, B: y*w + (x+1)%w})
			links = append(links, LinkSpec{A: c, B: ((y+1)%h)*w + x})
		}
	}
	return links
}
