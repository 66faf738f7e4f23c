// Package mem is the cache-coherence cost model.
//
// The paper's central observation (§4.1) is that many-core scalability
// problems manifest as cache misses on shared, mutable cache lines: writes
// must invalidate all cached copies, reads of recently written data must
// fetch from the writer's cache, and both cost "about the same time as
// loading data from off-chip RAM (hundreds of cycles)".
//
// This package charges those costs. Kernel code paths name the shared lines
// they touch (a dentry's refcount word, a spin lock word, a device stats
// field); Model tracks, per line, which cores hold copies and who wrote
// last, and returns the cycle cost of each access using the latencies from
// internal/topo. It is a cost model, not a functional memory: lines carry no
// data, only coherence state.
package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/prof"
	"repro/internal/topo"
)

// Line is a handle for one 64-byte cache line.
type Line int32

// NoLine is the zero Line's invalid sentinel. Alloc never returns it, so a
// zero-valued struct field can be detected as "not allocated".
const NoLine Line = -1

// state is the directory entry for one line. It holds no pointers, so the
// garbage collector never scans the directory: the sharer words for cores
// 64.. live in the model's per-page side arrays, and a profiler record is
// named by index into Model.labeled.
type state struct {
	sharers uint64 // bitmask of cores 0..63 holding a valid copy
	chips   uint64 // bitmask of chips with at least one sharer

	// busyUntil is when the line's current ownership transfer completes.
	// The coherence protocol serializes modifications of one line (§4.1:
	// "the cache coherence protocol serializes modifications to the same
	// cache line, which can prevent parallel speedup"; §4.3: "the
	// coherence hardware serializes the operations on a given counter").
	// Writers arriving earlier than busyUntil queue behind it.
	busyUntil int64

	owner int16 // core that last wrote, -1 if never written
	home  int8  // chip whose DRAM homes this line; freed for a freed line
	dirty bool  // true if owner's copy is modified
	label int32 // 1-based index into Model.labeled, 0 if unlabeled
}

// freed is the home of a freed entry: st panics on it, so a line is never
// accessed between Free and the Alloc that reuses it.
const freed = -1

// pageSize is how many lines one directory page holds. Pages are allocated
// whole as the directory grows and never move, so growth never copies
// entries already allocated.
//
//mosvet:allow fprintcheck storage layout, not a cost: no charged cycle depends on it
const pageSize = 1024

// page is one fixed-size block of directory entries.
type page [pageSize]state

// The sharer-set helpers below take the line's sharer words for cores 64..
// (hi, empty on machines with at most 64 cores), the accessor's word index
// w and its bit within that word (w is always 0 on machines with at most
// 64 cores, so the first branch of each is the whole story for the paper's
// host).

// hasSharer reports whether the core at (w, bit) holds a valid copy.
func (s *state) hasSharer(hi []uint64, w int, bit uint64) bool {
	if w == 0 {
		return s.sharers&bit != 0
	}
	return hi[w-1]&bit != 0
}

// addSharer records a valid copy for the core at (w, bit).
func (s *state) addSharer(hi []uint64, w int, bit uint64) {
	if w == 0 {
		s.sharers |= bit
		return
	}
	hi[w-1] |= bit
}

// anySharer reports whether any core holds a valid copy.
func (s *state) anySharer(hi []uint64) bool {
	if s.sharers != 0 {
		return true
	}
	for _, word := range hi {
		if word != 0 {
			return true
		}
	}
	return false
}

// onlySharer reports whether the core at (w, bit) is the sole sharer.
func (s *state) onlySharer(hi []uint64, w int, bit uint64) bool {
	if w == 0 {
		if s.sharers != bit {
			return false
		}
	} else if s.sharers != 0 {
		return false
	}
	for i, word := range hi {
		want := uint64(0)
		if i == w-1 {
			want = bit
		}
		if word != want {
			return false
		}
	}
	return true
}

// othersCount counts sharers other than the core at (w, bit).
func (s *state) othersCount(hi []uint64, w int, bit uint64) int {
	mask0 := s.sharers
	if w == 0 {
		mask0 &^= bit
	}
	n := bits.OnesCount64(mask0)
	for i, word := range hi {
		if i == w-1 {
			word &^= bit
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// setExclusive makes the core at (w, bit) the only sharer.
func (s *state) setExclusive(hi []uint64, w int, bit uint64) {
	s.sharers = 0
	clear(hi)
	if w == 0 {
		s.sharers = bit
	} else {
		hi[w-1] = bit
	}
}

// PageList is a free list of directory pages. A model built on it with
// NewModelOn takes pages from the list before it allocates new ones, and
// Release gives them back once the model is done. A sweep worker keeps one
// list for the points it runs in one sweep and drops it when the sweep
// ends. A list is not safe for concurrent use: the models drawing on it
// must not run at the same time.
type PageList struct {
	pages []*page
	// wide holds sharer-word arrays for cores 64.., all of one length:
	// Release keeps only the arrays of the model it is given last.
	wide [][]uint64
}

// Model is a directory-based coherence cost model for one machine.
//
// A model built on a PageList (a sweep point run by a harness worker)
// reuses directory pages an earlier point of the same sweep gave back;
// charged costs do not depend on where the pages came from.
type Model struct {
	mach *topo.Machine

	// The directory: line l is entry l%pageSize of pages[l/pageSize], and
	// its sharer words for cores 64.. are wide[l/pageSize][(l%pageSize)*words:]
	// (wide stays empty when words is 0).
	pages []*page
	wide  [][]uint64
	n     int // lines allocated, freed ones included

	// free lists the freed lines Alloc reuses before it grows the
	// directory.
	free []Line

	// spare is the free list new pages come from first, nil for a model
	// that allocates every page.
	spare *PageList

	// labeled holds the profiler record of each label, once however many
	// lines carry it; state.label indexes it.
	labeled []*prof.LineStats

	// chipOf caches the core->chip mapping so the hot paths avoid the
	// placement-policy branch in topo.Machine.Chip.
	chipOf []int8

	// words is how many uint64 sharer words a line needs beyond the first
	// (0 on machines with at most 64 cores, the paper's host included).
	words int

	// Prof collects contention statistics for this machine.
	Prof *prof.Registry

	// Stats
	reads, writes int64
}

// NewModel returns an empty model for the given machine.
func NewModel(m *topo.Machine) *Model { return NewModelOn(m, nil) }

// NewModelOn returns an empty model for the given machine that takes its
// directory pages from spare before allocating new ones. A nil spare is
// NewModel.
func NewModelOn(m *topo.Machine, spare *PageList) *Model {
	chipOf := make([]int8, m.NCores)
	for c := range chipOf {
		chipOf[c] = int8(m.Chip(c))
	}
	return &Model{
		mach:   m,
		chipOf: chipOf,
		words:  (m.NCores+63)/64 - 1,
		spare:  spare,
		Prof:   prof.New(),
	}
}

// Release moves the model's directory pages onto the list it was built on
// and empties the directory, so any later access to one of its lines
// panics. A model built without a list is left as it is. Sharer-word
// arrays of another length than this model's are dropped from the list.
func (md *Model) Release() {
	sp := md.spare
	if sp == nil {
		return
	}
	sp.pages = append(sp.pages, md.pages...)
	if len(md.wide) > 0 {
		if len(sp.wide) > 0 && len(sp.wide[0]) != len(md.wide[0]) {
			clear(sp.wide)
			sp.wide = sp.wide[:0]
		}
		sp.wide = append(sp.wide, md.wide...)
	}
	md.pages, md.wide, md.n, md.free, md.spare = nil, nil, 0, nil, nil
}

// newPage returns a directory page, from the spare list when it has one.
// Its entries may hold an earlier model's state; Alloc overwrites each
// entry before the line is used.
func (md *Model) newPage() *page {
	if sp := md.spare; sp != nil {
		if n := len(sp.pages); n > 0 {
			pg := sp.pages[n-1]
			sp.pages[n-1] = nil
			sp.pages = sp.pages[:n-1]
			return pg
		}
	}
	return new(page)
}

// newWide returns a zeroed sharer-word array for one page, reusing one of
// the spare list's when its length matches.
func (md *Model) newWide() []uint64 {
	if sp := md.spare; sp != nil {
		if n := len(sp.wide); n > 0 && len(sp.wide[n-1]) == pageSize*md.words {
			w := sp.wide[n-1]
			sp.wide[n-1] = nil
			sp.wide = sp.wide[:n-1]
			clear(w)
			return w
		}
	}
	return make([]uint64, pageSize*md.words)
}

// Label attaches a profiler record to a line so its coherence traffic
// appears in contention reports. Every line with the same name shares one
// record.
func (md *Model) Label(l Line, name string) {
	s, _ := md.st(l)
	if s.label != 0 {
		return
	}
	rec := md.Prof.Line(name)
	i := slices.Index(md.labeled, rec)
	if i < 0 {
		i = len(md.labeled)
		md.labeled = append(md.labeled, rec)
	}
	s.label = int32(i + 1)
}

// Machine returns the machine this model simulates.
func (md *Model) Machine() *topo.Machine { return md.mach }

// Alloc allocates a fresh line homed in the DRAM of the given chip. It
// reuses a freed line when there is one; a reused line starts exactly as
// a new one does.
func (md *Model) Alloc(homeChip int) Line {
	if homeChip < 0 || homeChip >= md.mach.Chips {
		panic(fmt.Sprintf("mem: home chip %d out of range", homeChip))
	}
	var l Line
	if n := len(md.free); n > 0 {
		l = md.free[n-1]
		md.free = md.free[:n-1]
	} else {
		if md.n%pageSize == 0 {
			md.pages = append(md.pages, md.newPage())
			if md.words > 0 {
				md.wide = append(md.wide, md.newWide())
			}
		}
		l = Line(md.n)
		md.n++
	}
	md.pages[uint(l)/pageSize][uint(l)%pageSize] = state{owner: -1, home: int8(homeChip)}
	return l
}

// AllocLocal allocates a line homed on the chip of the given core, the
// default NUMA placement for data first touched by that core.
func (md *Model) AllocLocal(core int) Line {
	return md.Alloc(md.mach.Chip(core))
}

// AllocN allocates n lines homed on the given chip and returns them.
func (md *Model) AllocN(homeChip, n int) []Line {
	ls := make([]Line, n)
	for i := range ls {
		ls[i] = md.Alloc(homeChip)
	}
	return ls
}

// Free returns line l to the directory. Until an Alloc reuses it, any
// access to l panics. A labeled line cannot be freed: labels name
// long-lived contention points.
func (md *Model) Free(l Line) {
	s, hi := md.st(l)
	if s.label != 0 {
		panic(fmt.Sprintf("mem: free of labeled line %d", l))
	}
	*s = state{home: freed}
	clear(hi)
	md.free = append(md.free, l)
}

// st returns line l's directory entry and its sharer words for cores 64..
// (empty on machines with at most 64 cores).
func (md *Model) st(l Line) (*state, []uint64) {
	if l < 0 || int(l) >= md.n {
		panic(fmt.Sprintf("mem: access to unallocated line %d", l))
	}
	pg, i := uint(l)/pageSize, uint(l)%pageSize
	s := &md.pages[pg][i]
	if s.home == freed {
		panic(fmt.Sprintf("mem: access to freed line %d", l))
	}
	if md.words == 0 {
		return s, nil
	}
	w := int(i) * md.words
	return s, md.wide[pg][w : w+md.words]
}

// Read returns the cycle cost for core c reading line l at virtual time
// now, and updates the directory: c becomes a sharer; a dirty copy
// elsewhere is downgraded. A read arriving while the line's ownership is
// in flight waits for the transfer to finish but does not extend the busy
// window (reads of a settled line proceed in parallel).
func (md *Model) Read(c int, l Line, now int64) int64 {
	return md.read(c, c>>6, uint64(1)<<uint(c&63), int(md.chipOf[c]), l, now)
}

// read is Read with the per-access constants (sharer word + bit, chip)
// hoisted so batch charging resolves them once per set instead of once
// per line.
func (md *Model) read(c, w int, bit uint64, myChip int, l Line, now int64) int64 {
	s, hi := md.st(l)
	md.reads++

	var wait int64
	if s.busyUntil > now && !s.hasSharer(hi, w, bit) {
		wait = s.busyUntil - now
	}

	var cost int64
	switch {
	case s.hasSharer(hi, w, bit):
		// Valid copy in this core's own cache.
		cost = md.mach.LatL1
	case s.dirty:
		// Must fetch the modified copy from the owner's cache.
		cost = md.mach.RemoteCacheLatency(myChip, int(md.chipOf[s.owner]))
		s.dirty = false // downgraded to shared; owner keeps a copy
	case s.anySharer(hi):
		// Clean copy in some cache; nearest provider wins.
		cost = md.fetchFromSharers(myChip, s.chips)
	default:
		// Nobody caches it: DRAM access to the home node.
		cost = md.mach.DRAMLatency(myChip, int(s.home))
	}
	s.addSharer(hi, w, bit)
	s.chips |= 1 << uint(myChip)
	return wait + cost
}

// fetchFromSharers returns the latency of fetching a clean copy from the
// nearest sharing cache. The directory tracks sharers per chip (chips),
// and interconnect latency grows monotonically with hop distance, so the
// nearest provider is found by widening the hop radius over the chip
// bitmask instead of scanning all NCores sharer bits.
func (md *Model) fetchFromSharers(myChip int, chips uint64) int64 {
	if chips&(1<<uint(myChip)) != 0 {
		return md.mach.LatL3 // same-chip L3 hit
	}
	maxHops := md.mach.MaxHops()
	for d := 1; d <= maxHops; d++ {
		if md.mach.SharersAtDistance(myChip, d, chips) != 0 {
			// Equal hop distance means equal latency for every provider
			// at that radius.
			return md.mach.DRAMLatencyAtHops(d)
		}
	}
	panic("mem: fetchFromSharers on a line with no sharers")
}

// Write returns the cycle cost for core c writing line l at virtual time
// now, and updates the directory: all other copies are invalidated and c
// becomes exclusive owner. Modifications of one line serialize: a write
// arriving while a previous transfer is in flight queues behind it, and
// its own transfer extends the busy window. This is what makes a single
// contended counter a bottleneck no matter how "lock-free" it is.
func (md *Model) Write(c int, l Line, now int64) int64 {
	return md.write(c, c>>6, uint64(1)<<uint(c&63), int(md.chipOf[c]), l, now)
}

// write is Write with the per-access constants hoisted (see read).
func (md *Model) write(c, w int, bit uint64, myChip int, l Line, now int64) int64 {
	s, hi := md.st(l)
	md.writes++

	var wait int64
	if s.busyUntil > now {
		wait = s.busyUntil - now
	}

	var cost int64
	switch {
	case s.dirty && s.owner == int16(c) && s.onlySharer(hi, w, bit):
		// Already exclusive and modified: cache hit.
		cost = md.mach.LatL1
	case s.dirty:
		// Fetch modified data from previous owner, then own it.
		cost = md.mach.RemoteCacheLatency(myChip, int(md.chipOf[s.owner]))
	case s.anySharer(hi):
		cost = md.fetchFromSharers(myChip, s.chips)
	default:
		cost = md.mach.DRAMLatency(myChip, int(s.home))
	}
	// Invalidation traffic: proportional to the number of *other* caches
	// holding copies (§4.1: "the protocol finds the cached copies and
	// invalidates them").
	others := s.othersCount(hi, w, bit)
	cost += int64(others) * costs.invalidatePerSharer

	// Contention is not work-conserving: an op that had to queue keeps
	// retrying and re-requesting while it waits, consuming line/directory
	// bandwidth beyond its own transfer (§4.1: spin-lock-style traffic
	// "proportional to the number of waiting cores"; acquisition "not
	// scalable under contention"). The line therefore stays busy longer
	// than the winner's transfer, capped at 3x.
	occupancy := cost
	if wait > 0 {
		occupancy += min(wait, 2*cost)
	}

	s.busyUntil = now + wait + occupancy
	s.setExclusive(hi, w, bit)
	s.chips = 1 << uint(myChip)
	s.owner = int16(c)
	s.dirty = true

	if s.label != 0 {
		st := md.labeled[s.label-1]
		st.Writes++
		st.WaitCycles += wait
	}
	return wait + cost
}

// Atomic returns the cost of an atomic read-modify-write (e.g. atomic
// increment) by core c on line l at time now. The coherence cost
// dominates; the atomic adds a small constant. This is the paper's point
// in §4.3: "lock-free atomic increment ... do[es] not help, because the
// coherence hardware serializes the operations on a given counter."
func (md *Model) Atomic(c int, l Line, now int64) int64 {
	return md.Write(c, l, now) + costs.atomicRMWExtra
}

// Op identifies the access kind of a batch charge.
type Op int

const (
	// OpRead charges plain loads.
	OpRead Op = iota
	// OpWrite charges plain stores (invalidate + own).
	OpWrite
	// OpAtomic charges locked read-modify-writes.
	OpAtomic
)

// LineSet is a reusable builder for the line sets passed to AccessSet.
// Kernel structures that touch the same group of lines on every operation
// (a dentry's compared fields, a process's sampled page-table lines) build
// the set once and re-charge it per operation without re-collecting.
type LineSet struct {
	lines []Line
}

// NewLineSet returns a set with room for n lines.
func NewLineSet(n int) *LineSet { return &LineSet{lines: make([]Line, 0, n)} }

// Add appends a line to the set and returns the set for chaining.
func (ls *LineSet) Add(l Line) *LineSet {
	ls.lines = append(ls.lines, l)
	return ls
}

// Reset empties the set, keeping its capacity.
func (ls *LineSet) Reset() { ls.lines = ls.lines[:0] }

// Len returns the number of lines in the set.
func (ls *LineSet) Len() int { return len(ls.lines) }

// Lines exposes the underlying slice for AccessSet.
func (ls *LineSet) Lines() []Line { return ls.lines }

// AccessSet charges core c for op on every line of the set at virtual time
// now and returns the total cycle cost. It is equivalent to issuing the
// accesses one at a time at the same virtual time — one logical operation
// whose misses the hardware pipelines — but resolves the directory with the
// per-access constants (sharer bit, chip) computed once, which is what
// kernel paths that touch many lines per operation (fork's page-table
// sample, dlookup's field compare, a DMA buffer's payload) want.
func (md *Model) AccessSet(c int, lines []Line, op Op, now int64) int64 {
	w := c >> 6
	bit := uint64(1) << uint(c&63)
	myChip := int(md.chipOf[c])
	var total int64
	switch op {
	case OpRead:
		for _, l := range lines {
			total += md.read(c, w, bit, myChip, l, now)
		}
	case OpWrite:
		for _, l := range lines {
			total += md.write(c, w, bit, myChip, l, now)
		}
	case OpAtomic:
		for _, l := range lines {
			total += md.write(c, w, bit, myChip, l, now) + costs.atomicRMWExtra
		}
	default:
		panic(fmt.Sprintf("mem: unknown op %d", op))
	}
	return total
}

// DMAWrite marks lines as freshly written by a DMA device: every cached
// copy is invalidated and the data now lives, clean, in the home node's
// DRAM. Devices are not cores, so no cycle cost is charged here — the cost
// shows up when a core next reads the line and must fetch it from the home
// chip's memory (local and cheap with per-core DMA pools, a cross-chip
// fetch with the stock node-0 pools, §4.5/§5.3).
func (md *Model) DMAWrite(lines []Line) {
	for _, l := range lines {
		s, hi := md.st(l)
		s.sharers = 0
		clear(hi)
		s.chips = 0
		s.owner = -1
		s.dirty = false
		// The device write supersedes any in-flight CPU transfer: the next
		// reader pays exactly the home-DRAM fetch, never a stale busy wait.
		s.busyUntil = 0
	}
}

// Reads returns the total read count (for tests and reports).
func (md *Model) Reads() int64 { return md.reads }

// Writes returns the total write count.
func (md *Model) Writes() int64 { return md.writes }

// NumLines returns how many lines the directory holds: the lines
// allocated, freed ones awaiting reuse included.
func (md *Model) NumLines() int { return md.n }
