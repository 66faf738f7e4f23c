// Package prof collects the contention statistics the paper's analysis
// methodology relies on: which locks are waited on and which cache lines
// are fought over. The authors found each bottleneck by exactly this kind
// of measurement ("Once we identified a bottleneck, it typically required
// little work to remove or avoid it", §1); the profiler makes the
// reproduction's bottlenecks observable the same way.
package prof

import (
	"fmt"
	"sort"
	"strings"
)

// LockStats accumulates the contention counters of one lock class: every
// lock registered under the same name counts into the one record, so a
// per-core array of locks or every dentry's d_lock is one row. Lock
// implementations update the fields directly; the registry only reports.
type LockStats struct {
	// Name identifies the lock class (e.g. "vfsmount_lock", "d_lock",
	// "skb-pool-cpu*").
	Name string
	// Acquisitions counts every acquire.
	Acquisitions int64
	// Contended counts acquires that had to wait.
	Contended int64
	// WaitCycles accumulates total cycles spent waiting.
	WaitCycles int64
}

// LineStats accumulates the coherence traffic of one line label: every
// line labeled with the same name counts into the one record, so a
// per-core array of labeled lines is one row, as with LockStats.
type LineStats struct {
	// Name is the line label (e.g. "dst_entry.refcnt").
	Name string
	// Writes counts modifications.
	Writes int64
	// WaitCycles accumulates cycles ops spent queued behind the line's
	// in-flight transfers.
	WaitCycles int64
}

// Registry owns all stats for one simulated machine.
type Registry struct {
	locks map[string]*LockStats
	lines map[string]*LineStats
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{locks: map[string]*LockStats{}, lines: map[string]*LineStats{}}
}

// Lock returns the stats record of the named lock class, creating it on
// first use. Every lock of a class shares the record, so the name must be
// the class (e.g. "sb_files-cpu*" for each core's open-file list lock),
// never a per-instance one.
func (r *Registry) Lock(name string) *LockStats {
	s, ok := r.locks[name]
	if !ok {
		s = &LockStats{Name: name}
		r.locks[name] = s
	}
	return s
}

// Line returns the stats record of the named line label, creating it on
// first use. Every line with the label shares the record.
func (r *Registry) Line(name string) *LineStats {
	s, ok := r.lines[name]
	if !ok {
		s = &LineStats{Name: name}
		r.lines[name] = s
	}
	return s
}

// TopLocks returns up to n acquired lock classes ordered by wait cycles
// (descending), then by name.
func (r *Registry) TopLocks(n int) []LockStats {
	out := make([]LockStats, 0, len(r.locks))
	for _, s := range r.locks {
		if s.Acquisitions > 0 {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TopLines returns up to n written line labels ordered by wait cycles
// (descending), then by name.
func (r *Registry) TopLines(n int) []LineStats {
	out := make([]LineStats, 0, len(r.lines))
	for _, s := range r.lines {
		if s.Writes > 0 {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Report renders a human-readable contention profile.
func (r *Registry) Report(topN int) string {
	var b strings.Builder
	b.WriteString("lock contention (by wait cycles):\n")
	locks := r.TopLocks(topN)
	if len(locks) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, s := range locks {
		pct := 0.0
		if s.Acquisitions > 0 {
			pct = 100 * float64(s.Contended) / float64(s.Acquisitions)
		}
		fmt.Fprintf(&b, "  %-24s %12d wait cy   %9d acq   %5.1f%% contended\n",
			s.Name, s.WaitCycles, s.Acquisitions, pct)
	}
	lines := r.TopLines(topN)
	if len(lines) > 0 {
		b.WriteString("hot cache lines (by transfer-queue cycles):\n")
		for _, s := range lines {
			fmt.Fprintf(&b, "  %-24s %12d wait cy   %9d writes\n",
				s.Name, s.WaitCycles, s.Writes)
		}
	}
	return b.String()
}
