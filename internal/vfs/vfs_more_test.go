package vfs

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestWalkRefcountBalanceProperty(t *testing.T) {
	// Property: any interleaving of walks, opens/closes, and stats leaves
	// every dentry's in-use refcount at zero once all files are closed.
	check := func(ops []uint8) bool {
		e, fs := newFS(4, pkCfg())
		fs.MustCreateFile("/a/b/c/file1", 10)
		fs.MustCreateFile("/a/b/file2", 10)
		balanced := true
		for c := 0; c < 4; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				var open []File
				for i, op := range ops {
					path := "/a/b/c/file1"
					if (i+c)%2 == 0 {
						path = "/a/b/file2"
					}
					switch op % 4 {
					case 0:
						fs.Walk(p, path, false)
					case 1:
						fs.Stat(p, path)
					case 2:
						open = append(open, fs.Open(p, path))
					case 3:
						if len(open) > 0 {
							fs.Close(p, open[len(open)-1])
							open = open[:len(open)-1]
						}
					}
				}
				for _, f := range open {
					fs.Close(p, f)
				}
			})
		}
		e.Run()
		for _, d := range []*Dentry{
			fs.root,
			fs.root.children["a"],
			fs.root.children["a"].children["b"],
		} {
			if d.Ref().InUse() != 0 {
				balanced = false
			}
		}
		return balanced
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentCreateUnlinkDistinctNames(t *testing.T) {
	e, fs := newFS(8, stockCfg())
	fs.MustMkdirAll("/spool")
	for c := 0; c < 8; c++ {
		c := c
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("m-%d-%d", c, i)
				f := fs.Create(p, "/spool", name)
				fs.Append(p, f, 500)
				fs.Close(p, f)
				fs.Unlink(p, "/spool", name)
			}
		})
	}
	e.Run()
	if n := fs.MustMkdirAll("/spool").NumChildren(); n != 0 {
		t.Errorf("spool has %d children after balanced create/unlink", n)
	}
}

func TestCreateExistingPanics(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	fs.MustCreateFile("/d/x", 1)
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("create of existing file did not panic")
			}
		}()
		fs.Create(p, "/d", "x")
	})
	e.Run()
}

func TestUnlinkMissingPanics(t *testing.T) {
	e, fs := newFS(1, stockCfg())
	fs.MustMkdirAll("/d")
	e.Spawn(0, "p", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unlink of missing file did not panic")
			}
		}()
		fs.Unlink(p, "/d", "nope")
	})
	e.Run()
}

func TestScalableMountLockConfig(t *testing.T) {
	cfg := stockCfg()
	cfg.ScalableMountLock = true
	e, fs := newFS(4, cfg)
	fs.MustCreateFile("/f", 1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				fs.Walk(p, "/f", false)
			}
		})
	}
	e.Run()
	if fs.md.Prof.Lock("vfsmount_lock(mcs)").Acquisitions == 0 {
		t.Error("MCS mount lock never acquired")
	}
}

func TestDirectoryMutexSerializesCreates(t *testing.T) {
	// Creates in one directory serialize on its i_mutex; creates in
	// distinct directories proceed in parallel. Wall-clock must reflect
	// that — the Exim spool effect in miniature.
	run := func(sameDir bool) int64 {
		e, fs := newFS(8, pkCfg())
		for d := 0; d < 8; d++ {
			fs.MustMkdirAll(fmt.Sprintf("/d%d", d))
		}
		for c := 0; c < 8; c++ {
			c := c
			e.Spawn(c, "p", 0, func(p *sim.Proc) {
				dir := "/d0"
				if !sameDir {
					dir = fmt.Sprintf("/d%d", c)
				}
				for i := 0; i < 10; i++ {
					f := fs.Create(p, dir, fmt.Sprintf("f-%d-%d", c, i))
					fs.Close(p, f)
					fs.Unlink(p, dir, fmt.Sprintf("f-%d-%d", c, i))
				}
			})
		}
		e.Run()
		return e.Now()
	}
	same, distinct := run(true), run(false)
	if same < distinct*3/2 {
		t.Errorf("same-dir creates %d cycles vs distinct dirs %d; want serialization", same, distinct)
	}
}
