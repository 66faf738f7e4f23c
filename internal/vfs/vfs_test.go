package vfs

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
	"repro/internal/topo"
)

// StockConfig and PKConfig mirror the kernel-level presets for this
// subsystem.
func stockCfg() Config { return Config{} }
func pkCfg() Config {
	return Config{
		SloppyDentryRef:     true,
		SloppyVfsmountRef:   true,
		LockFreeDlookup:     true,
		PerCoreMountCache:   true,
		PerCoreOpenList:     true,
		InodeListAvoidLock:  true,
		DcacheListAvoidLock: true,
		AtomicLseek:         true,
	}
}

func newFS(cores int, cfg Config) (*sim.Engine, *FS) {
	m := topo.New(cores)
	md := mem.NewModel(m)
	return sim.NewEngine(m, 1), New(md, mm.NewAllocator(md), cfg)
}

func TestSetupTreeAndWalk(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	fs.MustCreateFile("/var/www/index.html", 300)
	var d *Dentry
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		d = fs.Walk(p, "/var/www/index.html", true)
		fs.Put(p, d)
	})
	e.Run()
	if d == nil || d.Name != "index.html" {
		t.Fatalf("walk returned %v", d)
	}
	if d.Inode().Size != 300 {
		t.Errorf("size = %d, want 300", d.Inode().Size)
	}
}

func TestWalkMissingPathPanics(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("walk of missing path did not panic")
			}
		}()
		fs.Walk(p, "/nope", false)
	})
	e.Run()
}

func TestOpenCloseBalancesRefs(t *testing.T) {
	e, fs := newFS(2, pkCfg())
	fs.MustCreateFile("/f", 10)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		f := fs.Open(p, "/f")
		fs.Close(p, f)
	})
	e.Run()
	d := fs.root.children["f"]
	if got := d.Ref().InUse(); got != 0 {
		t.Errorf("refcount after open/close = %d, want 0", got)
	}
}

func TestCreateUnlinkRoundTrip(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	fs.MustMkdirAll("/spool")
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		f := fs.Create(p, "/spool", "msg1")
		fs.Append(p, f, 2000)
		fs.Close(p, f)
		fs.Unlink(p, "/spool", "msg1")
	})
	e.Run()
	if n := fs.MustMkdirAll("/spool").NumChildren(); n != 0 {
		t.Errorf("spool children after unlink = %d, want 0", n)
	}
}

func TestAppendGrowsSizeAndAllocatesPages(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	fs.MustCreateFile("/f", 0)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		f := fs.Open(p, "/f")
		fs.Append(p, f, 10000)
		fs.Close(p, f)
	})
	e.Run()
	if got := fs.root.children["f"].Inode().Size; got != 10000 {
		t.Errorf("size after append = %d, want 10000", got)
	}
	if fs.alloc.Allocated(0) != 3 { // ceil(10000/4096)
		t.Errorf("pages allocated = %d, want 3", fs.alloc.Allocated(0))
	}
}

// walkBench measures per-walk wall cycles for n cores hammering one path.
func walkBench(cfg Config, cores int) float64 {
	m := topo.New(cores)
	md := mem.NewModel(m)
	e := sim.NewEngine(m, 1)
	fs := New(md, mm.NewAllocator(md), cfg)
	fs.MustCreateFile("/usr/share/doc/file.txt", 100)
	const walks = 100
	for c := 0; c < cores; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < walks; i++ {
				fs.Walk(p, "/usr/share/doc/file.txt", false)
				p.Advance(500) // app work between walks
			}
		})
	}
	e.Run()
	return float64(e.Now()) / walks
}

func TestStockWalkCollapsesPKWalkScales(t *testing.T) {
	stock1, stock48 := walkBench(stockCfg(), 1), walkBench(stockCfg(), 48)
	pk1, pk48 := walkBench(pkCfg(), 1), walkBench(pkCfg(), 48)

	stockSlowdown := stock48 / stock1
	pkSlowdown := pk48 / pk1
	if stockSlowdown < 3*pkSlowdown {
		t.Errorf("stock walk slowdown %.1fx vs PK %.1fx at 48 cores; stock must collapse much harder",
			stockSlowdown, pkSlowdown)
	}
	if pkSlowdown > 6 {
		t.Errorf("PK walk slowdown %.1fx at 48 cores; should stay moderate", pkSlowdown)
	}
}

func TestPerCoreMountCacheHits(t *testing.T) {
	e, fs := newFS(8, pkCfg())
	fs.MustCreateFile("/f", 1)
	for c := 0; c < 8; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				fs.Walk(p, "/f", false)
			}
		})
	}
	e.Run()
	mt := fs.MountTable()
	// Each walk of "/f" consults the mount table twice: once at walk
	// start and once for the single component crossing (follow_mount).
	if mt.Lookups() != 160 {
		t.Errorf("mount lookups = %d, want 160", mt.Lookups())
	}
	// All but the first lookup per core hit the per-core cache.
	if mt.CacheHits() != 152 {
		t.Errorf("cache hits = %d, want 152", mt.CacheHits())
	}
}

func TestStockMountLockContended(t *testing.T) {
	e, fs := newFS(48, stockCfg())
	fs.MustCreateFile("/f", 1)
	for c := 0; c < 48; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				fs.Walk(p, "/f", false)
			}
		})
	}
	e.Run()
	if fs.md.Prof.Lock("vfsmount_lock").Contended == 0 {
		t.Error("stock mount table lock saw no contention under 48-core load")
	}
}

func TestLseekStockVsAtomic(t *testing.T) {
	run := func(cfg Config, cores int) float64 {
		m := topo.New(cores)
		md := mem.NewModel(m)
		e := sim.NewEngine(m, 1)
		fs := New(md, mm.NewAllocator(md), cfg)
		fs.MustCreateFile("/db/table", 600<<20)
		const seeks = 100
		for c := 0; c < cores; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				f := fs.Open(p, "/db/table")
				for i := 0; i < seeks; i++ {
					fs.Lseek(p, f)
					p.Advance(200)
				}
				fs.Close(p, f)
			})
		}
		e.Run()
		return float64(e.Now()) / seeks
	}
	stock48 := run(stockCfg(), 48)
	pk48 := run(pkCfg(), 48)
	if stock48 < 5*pk48 {
		t.Errorf("stock lseek %.0f cycles/op vs PK %.0f at 48 cores; mutex must dominate", stock48, pk48)
	}
}

func TestOpenListCrossCoreRemoval(t *testing.T) {
	e, fs := newFS(2, pkCfg())
	fs.MustCreateFile("/f", 1)
	var f File
	var opener *sim.Proc
	opener = e.Spawn(0, "opener", 0, func(p *sim.Proc) {
		f = fs.Open(p, "/f")
		p.Block() // hand off to closer
		_ = opener
	})
	e.Spawn(1, "closer", 10, func(p *sim.Proc) {
		p.Advance(5000)
		fs.Close(p, f)
		opener.Wake(p.Now())
	})
	e.Run()
	if fs.SuperBlock().CrossCoreRemovals() != 1 {
		t.Errorf("cross-core removals = %d, want 1", fs.SuperBlock().CrossCoreRemovals())
	}
}

func TestAnonInodeChurnStressesGlobalLocksInStock(t *testing.T) {
	churn := func(cfg Config) int64 {
		m := topo.New(48)
		md := mem.NewModel(m)
		e := sim.NewEngine(m, 1)
		fs := New(md, mm.NewAllocator(md), cfg)
		for c := 0; c < 48; c++ {
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				for i := 0; i < 30; i++ {
					fs.CreateAnon(p)
					p.Advance(1000)
					fs.ReleaseAnon(p)
				}
			})
		}
		e.Run()
		return e.Now()
	}
	stock, pk := churn(stockCfg()), churn(pkCfg())
	if stock < pk*3/2 {
		t.Errorf("socket churn stock %d cycles vs PK %d; want global-lock penalty", stock, pk)
	}
}

func TestRemountCheckScansAllCores(t *testing.T) {
	e, fs := newFS(4, pkCfg())
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		fs.SuperBlock().RemountCheck(p)
	})
	e.Run()
	// No assertion beyond "it completes" — the per-core scan must not
	// deadlock and must visit all lists.
}

func TestSplitHelpers(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	want := fs.MustCreateFile("/a/b/c", 1)
	got := map[string]*Dentry{}
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		for _, path := range []string{"/a/b/c", "a/b/c", "//a//b/c/", "/"} {
			got[path] = fs.Walk(p, path, false)
		}
	})
	e.Run()
	for _, path := range []string{"/a/b/c", "a/b/c", "//a//b/c/"} {
		if got[path] != want {
			t.Errorf("Walk(%q) = %v, want the dentry of /a/b/c", path, got[path])
		}
	}
	if got["/"] != fs.root {
		t.Errorf("Walk(/) = %v, want the root", got["/"])
	}
	dir, name := splitDir("/a/b/c")
	if dir != "/a/b" || name != "c" {
		t.Errorf("splitDir = %q, %q", dir, name)
	}
}

// TestWalkAllocatesNothing guards the path walk's host cost: resolving a
// path steps through its components in place, so a walk that hits the
// dcache allocates no objects on either kernel.
func TestWalkAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for name, cfg := range map[string]Config{"stock": stockCfg(), "pk": pkCfg()} {
		e, fs := newFS(1, cfg)
		const path = "/var/spool/exim/input/msg"
		fs.MustCreateFile(path, 1)
		var allocs float64
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			allocs = testing.AllocsPerRun(100, func() { fs.Walk(p, path, false) })
		})
		e.Run()
		if allocs != 0 {
			t.Errorf("%s: Walk(%q) allocates %.1f objects, want 0", name, path, allocs)
		}
	}
}

// BenchmarkWalk measures one stock path walk of five components on a
// single core: mount-table and dcache charges with no contention.
func BenchmarkWalk(b *testing.B) {
	e, fs := newFS(1, stockCfg())
	const path = "/var/spool/exim/input/msg"
	fs.MustCreateFile(path, 1)
	b.ReportAllocs()
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		b.ResetTimer()
		for range b.N {
			fs.Walk(p, path, false)
		}
	})
	e.Run()
}

// createBurstBudget bounds the heap objects a fresh file system allocates
// to create createBurst files: dentries and their sloppy counters come
// from chunks (a few dozen for the burst), and the rest is the directory
// map's growth and the memory model's directory pages. One object per
// file or more (a dentry, a counter) fails it.
const (
	createBurst       = 1024
	createBurstBudget = 64
)

// TestFileCycleAllocationBudget pins the host allocations of a file's
// life. A burst of creates on a fresh file system takes its dentries from
// chunks, so it allocates a few dozen objects, not one or more per file.
// In the steady state a Create, Close and Unlink allocate nothing: the
// open File is a value, and each Create reuses the dentry the last Unlink
// queued, whose grace period has ended, with its inode, locks, generation
// counter and refcount (on PK, its sloppy counter and per-core pools).
func TestFileCycleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	names := make([]string, createBurst)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want float64
	}{
		{"stock", stockCfg(), 0},
		{"pk", pkCfg(), 0},
	} {
		e, fs := newFS(48, c.cfg)
		fs.MustMkdirAll("/burst")
		var burst uint64
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			burst = mallocs(func() {
				for _, n := range names {
					fs.Close(p, fs.Create(p, "/burst", n))
				}
			})
		})
		e.Run()
		if burst > createBurstBudget {
			t.Errorf("%s: %d creates on a fresh file system allocate %d objects, want at most %d",
				c.name, createBurst, burst, createBurstBudget)
		}

		e, fs = newFS(1, c.cfg)
		fs.MustMkdirAll("/spool")
		cycle := func(p *sim.Proc) {
			fs.Close(p, fs.Create(p, "/spool", "msg"))
			fs.Unlink(p, "/spool", "msg")
		}
		var allocs float64
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			cycle(p) // grow the directory's map and the unlinked list once
			allocs = testing.AllocsPerRun(100, func() { cycle(p) })
		})
		e.Run()
		if allocs != c.want {
			t.Errorf("%s: a Create+Close+Unlink cycle allocates %.0f objects, want %.0f", c.name, allocs, c.want)
		}
	}
}

// mallocs returns how many heap objects f allocates, counted as
// testing.AllocsPerRun counts them but for one run of f, whose work (a
// burst on a fresh structure) cannot be repeated.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
