package vfs

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// kernels are the two layouts every reclamation test runs on.
var kernels = []struct {
	name string
	cfg  Config
}{{"stock", stockCfg()}, {"pk", pkCfg()}}

// spoolChild returns the dentry /spool/name, nil if there is none.
func spoolChild(fs *FS, name string) *Dentry {
	return fs.root.children["spool"].children[name]
}

// TestParkedReaderDelaysReclaim: a walker that found /spool/msg and then
// parked inside its RCU read-side section (on the dentry's d_lock, which
// another proc holds mid-modification) keeps the dentry from being
// reclaimed after an Unlink, so a Create in the meantime gets a new
// dentry. Once the walker has left its section and dropped its
// reference, the next Create reuses the unlinked one. Had the dentry been
// reclaimed early, the walker's read of its fields line would panic on the
// freed line.
func TestParkedReaderDelaysReclaim(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			e, fs := newFS(4, k.cfg)
			fs.MustMkdirAll("/spool")
			d := fs.MustCreateFile("/spool/msg", 0)
			e.Spawn(1, "holder", 0, func(p *sim.Proc) {
				d.lock.Acquire(p)
				if k.cfg.LockFreeDlookup {
					d.gen.BeginWrite(p) // send lock-free readers to d_lock
				}
				p.Idle(50_000)
				if k.cfg.LockFreeDlookup {
					d.gen.EndWrite(p)
				}
				d.lock.Release(p)
			})
			e.Spawn(2, "walker", 100, func(p *sim.Proc) {
				fs.Walk(p, "/spool/msg", false)
			})
			e.Spawn(3, "unlinker", 5_000, func(p *sim.Proc) {
				if !fs.rcu.InReader(2) {
					t.Fatal("the walker is not parked inside its read-side section")
				}
				fs.Unlink(p, "/spool", "msg")
				fs.Close(p, fs.Create(p, "/spool", "early"))
				if spoolChild(fs, "early") == d {
					t.Error("a Create reused the dentry while a reader that found it was still inside its section")
				}
				p.IdleUntil(200_000)
				fs.Close(p, fs.Create(p, "/spool", "late"))
				if spoolChild(fs, "late") != d {
					t.Error("the Create after the reader left did not reuse the unlinked dentry")
				}
			})
			e.Run()
		})
	}
}

// TestHeldReferenceDelaysReclaim: a reference taken with Walk(holdFinal)
// and held across a park keeps an unlinked dentry from being reclaimed,
// although its grace period ends at once, until Put drops it.
func TestHeldReferenceDelaysReclaim(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			e, fs := newFS(4, k.cfg)
			fs.MustMkdirAll("/spool")
			d := fs.MustCreateFile("/spool/msg", 0)
			e.Spawn(2, "holder", 0, func(p *sim.Proc) {
				held := fs.Walk(p, "/spool/msg", true)
				p.Idle(50_000)
				fs.Put(p, held)
			})
			e.Spawn(3, "unlinker", 5_000, func(p *sim.Proc) {
				fs.Unlink(p, "/spool", "msg")
				fs.Close(p, fs.Create(p, "/spool", "early"))
				if !fs.rcu.Expired(d.gp) {
					t.Error("the grace period did not end with no reader inside a section")
				}
				if spoolChild(fs, "early") == d {
					t.Error("a Create reused the dentry while a reference to it was held")
				}
				p.IdleUntil(200_000)
				fs.Close(p, fs.Create(p, "/spool", "late"))
				if spoolChild(fs, "late") != d {
					t.Error("the Create after Put did not reuse the unlinked dentry")
				}
			})
			e.Run()
		})
	}
}

// fileLife runs one file's life on cores 1..4 from time start: core 1
// creates and writes it, core 2 stats it, core 3 opens, seeks and closes
// it, and core 4 unlinks it. It returns each operation's cost.
func fileLife(e *sim.Engine, fs *FS, name string, start int64) *[]int64 {
	costs := new([]int64)
	op := func(p *sim.Proc, do func()) {
		t0 := p.Now()
		do()
		*costs = append(*costs, p.Now()-t0)
	}
	e.Spawn(1, "create", start, func(p *sim.Proc) {
		var f File
		op(p, func() { f = fs.Create(p, "/spool", name) })
		op(p, func() { fs.Append(p, f, 5000) })
		op(p, func() { fs.Close(p, f) })
	})
	e.Spawn(2, "stat", start+10_000, func(p *sim.Proc) {
		op(p, func() { fs.Stat(p, "/spool/"+name) })
	})
	e.Spawn(3, "seek", start+20_000, func(p *sim.Proc) {
		f := fs.Open(p, "/spool/"+name)
		op(p, func() { fs.Lseek(p, f) })
		op(p, func() { fs.Close(p, f) })
	})
	e.Spawn(4, "unlink", start+30_000, func(p *sim.Proc) {
		op(p, func() { fs.Unlink(p, "/spool", name) })
	})
	return costs
}

// TestRecycledDentryChargesLikeFresh: two file systems run the same two
// file lives, x then y. In one, y's Create reuses x's reclaimed dentry
// (and, on PK, its sloppy counter, whose pools x's life touched on four
// cores); in the other, x is kept from reclamation, so y's dentry is
// fresh. Every operation of y's life charges the same in both.
func TestRecycledDentryChargesLikeFresh(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			run := func(recycle bool) (costs []int64, reused bool) {
				e, fs := newFS(48, k.cfg)
				fs.MustMkdirAll("/spool")
				fileLife(e, fs, "x", 0)
				var x *Dentry
				e.Spawn(5, "between", 50_000, func(p *sim.Proc) {
					x = fs.unlinked[0]
					if !recycle {
						fs.unlinked = fs.unlinked[:0]
					}
				})
				y := fileLife(e, fs, "y", 100_000)
				e.Spawn(5, "check", 120_000, func(p *sim.Proc) {
					reused = spoolChild(fs, "y") == x
				})
				e.Run()
				return *y, reused
			}
			recycled, reused := run(true)
			fresh, freshReused := run(false)
			if !reused || freshReused {
				t.Fatalf("y reused x's dentry: %v with reclamation, %v without; want true, false", reused, freshReused)
			}
			if !reflect.DeepEqual(recycled, fresh) {
				t.Errorf("a recycled dentry charged %v, a fresh one %v", recycled, fresh)
			}
		})
	}
}
