package apps

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/topo"
)

// stockResources maps each Figure 1 fix to the lock classes and line
// labels its stock path contends or, for a fix with none to check, to the
// reason why.
var stockResources = map[string]struct {
	names []string
	none  string
}{
	"parallel-accept": {names: []string{"accept-backlog", "tcp.accept_backlog"}},
	"dentry-ref": {none: "stock d_count sits on each dentry's own line; labeling it would " +
		"make every dentry's line unfreeable (mem.Free panics on a labeled line)"},
	"vfsmount-ref":         {names: []string{"vfsmount.table+refcnt"}},
	"dst-ref":              {names: []string{"dst_entry.refcnt"}},
	"proto-mem":            {names: []string{"proto.memory_allocated"}},
	"dentry-lock":          {names: []string{"d_lock"}},
	"mount-lock":           {names: []string{"vfsmount_lock"}},
	"open-list":            {names: []string{"sb_files"}},
	"dma-buffers":          {names: []string{"skb-pool-node*", "skb.free_list(node0)"}},
	"netdev-false-sharing": {names: []string{"net_device.config+stats"}},
	"page-false-sharing":   {none: "its page-struct lines are unlabeled"},
	"inode-lists":          {names: []string{"inode_lock"}},
	"dcache-lists":         {names: []string{"dcache_lock"}},
	"lseek-mutex":          {names: []string{"i_mutex"}},
	"superpage-locking":    {names: []string{"super-page"}},
	"superpage-zeroing":    {none: "the cache flush is an analytic stall, not a lock or a line"},
}

// stockRun runs one app on a 48-core stock kernel with a small budget and
// returns its contention profile. Metis maps super pages, as the ablation
// does, so its super-page path runs.
func stockRun(app string) *prof.Registry {
	m := topo.New(48)
	if app == "Metis" {
		m = topo.Default().WithCoresRR(48)
	}
	k := kernel.New(m, kernel.Stock(), 1)
	switch app {
	case "Apache":
		opts := DefaultApacheOpts()
		opts.RequestsPerCore = 20
		RunApache(k, opts)
	case "Exim":
		opts := DefaultEximOpts()
		opts.MessagesPerCore = 5
		RunExim(k, opts)
	case "memcached":
		opts := DefaultMemcachedOpts()
		opts.RequestsPerCore = 20
		RunMemcached(k, opts)
	case "PostgreSQL":
		opts := DefaultPostgresOpts()
		opts.QueriesPerCore = 20
		opts.ModPG = true
		RunPostgres(k, opts)
	case "Metis":
		opts := DefaultMetisOpts()
		opts.InputBytes /= 16
		opts.SuperPages = true
		RunMetis(k, opts)
	default:
		panic("apps: no stock run for " + app)
	}
	return k.MD.Prof
}

// touched returns, by name, the acquisitions of every acquired lock class
// and the writes of every written line label in r.
func touched(r *prof.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, s := range r.TopLocks(math.MaxInt) {
		out[s.Name] += s.Acquisitions
	}
	for _, s := range r.TopLines(math.MaxInt) {
		out[s.Name] += s.Writes
	}
	return out
}

// TestStockTouchesFixResources: on the stock kernel, every app a Figure 1
// fix lists still runs the fix's stock mechanism, so each ablation
// compares the fix against a path that is really taken. It guards the
// constructors that choose each mechanism: a stock structure that is
// built but never reached would show as a resource with no traffic.
func TestStockTouchesFixResources(t *testing.T) {
	runs := map[string]map[string]int64{}
	touchedBy := func(app string) map[string]int64 {
		if _, ok := runs[app]; !ok {
			runs[app] = touched(stockRun(app))
		}
		return runs[app]
	}
	for _, f := range kernel.Fixes {
		row, ok := stockResources[f.Name]
		switch {
		case !ok:
			t.Errorf("fix %q has no stockResources row", f.Name)
		case len(row.names) == 0 && row.none == "":
			t.Errorf("fix %q lists no resource and no reason", f.Name)
		}
		for _, app := range f.Apps {
			for _, n := range row.names {
				if touchedBy(app)[n] == 0 {
					t.Errorf("fix %q: stock %s never touched %q", f.Name, app, n)
				}
			}
		}
	}
	if len(stockResources) != len(kernel.Fixes) {
		t.Errorf("stockResources has %d rows for %d fixes", len(stockResources), len(kernel.Fixes))
	}
}
