package mem

// Fields models the cache-line layout of a kernel structure with a mix of
// read-mostly and frequently written fields (e.g. struct net_device, struct
// device, struct page). In the stock layout, hot written fields share lines
// with read-only fields, so readers on other cores miss even though the
// data they need never changes — the false sharing of §4.6. In the padded
// (PK) layout every field gets its own line.
type Fields struct {
	lines  []Line
	padded bool
}

// NewFields allocates a structure with n logical fields homed on the given
// chip. If padded is false, all fields share a single cache line (the false
// sharing case); if true, each field has its own line.
func NewFields(md *Model, homeChip, n int, padded bool) *Fields {
	f := &Fields{padded: padded}
	if padded {
		f.lines = md.AllocN(homeChip, n)
	} else {
		f.lines = []Line{md.Alloc(homeChip)}
	}
	return f
}

// LineOf returns the cache line that holds field i.
func (f *Fields) LineOf(i int) Line {
	if f.padded {
		return f.lines[i]
	}
	return f.lines[0]
}

// Read charges a read of field i by core c at time now.
func (f *Fields) Read(md *Model, c, i int, now int64) int64 { return md.Read(c, f.LineOf(i), now) }
