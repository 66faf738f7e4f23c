package mem

// Shadow is the coherence state shared by a group of lines that no core has
// written: every read of the group reads each of its lines at one virtual
// time, so they all have the same sharers, and each line differs from the
// others only in its home chip. A structure that would otherwise allocate
// the whole group up front (a sloppy counter's per-core pools, most of
// which are never touched) keeps one Shadow instead, charges reads of the
// unallocated lines with ReadShadow and ShareShadow, and allocates a line
// with AllocShadow when it is first written.
//
// The zero Shadow is a group nobody has read.
type Shadow struct {
	sharers uint64   // bitmask of cores 0..63 that read the group
	chips   uint64   // bitmask of chips with at least one such core
	hi      []uint64 // sharer words for cores 64.., nil until one reads
}

// Reset makes sh a group nobody has read, keeping its sharer words.
func (sh *Shadow) Reset() {
	sh.sharers, sh.chips = 0, 0
	clear(sh.hi)
}

// hasSharer reports whether the core at (w, bit) read the group.
func (sh *Shadow) hasSharer(w int, bit uint64) bool {
	if w == 0 {
		return sh.sharers&bit != 0
	}
	return sh.hi != nil && sh.hi[w-1]&bit != 0
}

// ReadShadow returns what Read would charge core c for one line of sh's
// group homed on chip home, and counts the read. The line has never been
// written, so no transfer is in flight and the cost is an L1 hit, the
// nearest sharer's copy, or the home-DRAM fetch. It leaves sh as it is:
// a caller that reads several lines of the group at one time charges each
// of them here and then calls ShareShadow once.
func (md *Model) ReadShadow(c int, sh *Shadow, home int) int64 {
	md.reads++
	myChip := int(md.chipOf[c])
	switch {
	case sh.hasSharer(c>>6, uint64(1)<<uint(c&63)):
		return md.mach.LatL1
	case sh.chips != 0:
		return md.fetchFromSharers(myChip, sh.chips)
	default:
		return md.mach.DRAMLatency(myChip, home)
	}
}

// ShareShadow records core c as a sharer of every line of sh's group, as
// Read records its reader.
func (md *Model) ShareShadow(c int, sh *Shadow) {
	bit := uint64(1) << uint(c&63)
	if w := c >> 6; w == 0 {
		sh.sharers |= bit
	} else {
		if sh.hi == nil {
			sh.hi = make([]uint64, md.words)
		}
		sh.hi[w-1] |= bit
	}
	sh.chips |= 1 << uint(md.chipOf[c])
}

// AllocShadow allocates a line of sh's group homed on the given chip: a
// fresh line whose sharers are the group's.
func (md *Model) AllocShadow(homeChip int, sh *Shadow) Line {
	l := md.Alloc(homeChip)
	s, hi := md.st(l)
	s.sharers, s.chips = sh.sharers, sh.chips
	copy(hi, sh.hi)
	return l
}
