package kernel

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestStockHasNoFixes(t *testing.T) {
	c := Stock()
	for _, f := range Fixes {
		if *f.Flag(&c) {
			t.Errorf("fix %q enabled in stock config", f.Name)
		}
	}
}

func TestPKHasAllFixes(t *testing.T) {
	c := PK()
	for _, f := range Fixes {
		if !*f.Flag(&c) {
			t.Errorf("fix %q not enabled in PK config", f.Name)
		}
	}
}

func TestSixteenFixes(t *testing.T) {
	if len(Fixes) != 16 {
		t.Errorf("fix registry has %d entries; the paper lists 16", len(Fixes))
	}
}

func TestEachFixTogglesDistinctFlag(t *testing.T) {
	// Every registry row must point at its own switch: no two rows may
	// share a flag, and setting any one alone must change Stock.
	var c Config
	owner := map[*bool]string{}
	for _, f := range Fixes {
		p := f.Flag(&c)
		if prev, ok := owner[p]; ok {
			t.Errorf("fixes %q and %q share a flag", prev, f.Name)
		}
		owner[p] = f.Name
	}
	for _, f := range Fixes {
		c := Stock()
		*f.Flag(&c) = true
		if c == Stock() {
			t.Errorf("fix %q did not change the config", f.Name)
		}
	}
}

func TestBootKernel(t *testing.T) {
	k := New(topo.New(48), PK(), 1)
	if k.FS == nil || k.Procs == nil || k.Engine == nil {
		t.Fatal("kernel boot left nil subsystems")
	}
	// The booted FS runs the PK VFS config: with AtomicLseek an Lseek
	// takes no i_mutex, where a stock kernel's takes one.
	if n := lseekMutexAcquisitions(k); n != 0 {
		t.Errorf("an Lseek on the PK kernel made %d i_mutex acquisitions, want 0", n)
	}
	if n := lseekMutexAcquisitions(New(topo.New(48), Stock(), 1)); n != 1 {
		t.Errorf("an Lseek on the stock kernel made %d i_mutex acquisitions, want 1", n)
	}
	stack := k.NewStack(nil)
	if stack == nil {
		t.Fatal("NewStack returned nil")
	}
	as := k.NewAddressSpace(0)
	if as == nil {
		t.Fatal("NewAddressSpace returned nil")
	}
}

// lseekMutexAcquisitions opens a new file on k, seeks it once and closes
// it, and returns how many i_mutex acquisitions the Lseek made.
func lseekMutexAcquisitions(k *Kernel) int64 {
	k.FS.MustCreateFile("/lseek-probe", 4096)
	mu := k.MD.Prof.Lock("i_mutex")
	var n int64
	k.Engine.Spawn(0, "seek", 0, func(p *sim.Proc) {
		f := k.FS.Open(p, "/lseek-probe")
		before := mu.Acquisitions
		k.FS.Lseek(p, f)
		n = mu.Acquisitions - before
		k.FS.Close(p, f)
	})
	k.Engine.Run()
	return n
}

// TestLockClassesShareOneRecord: a lock counts into its class's record.
// On a PK kernel each core's open-file list lock is one of 48 locks of the
// class sb_files-cpu*, and an open and a close on every core reach that
// one record, the only sb_files-cpu row of the profile. On a stock kernel
// a dentry created at run time counts its d_lock into md.Prof.Lock
// ("d_lock").
func TestLockClassesShareOneRecord(t *testing.T) {
	k := New(topo.New(48), PK(), 1)
	k.FS.MustCreateFile("/f", 1)
	for c := 0; c < 48; c++ {
		k.Engine.Spawn(c, "p", 0, func(p *sim.Proc) {
			k.FS.Close(p, k.FS.Open(p, "/f"))
		})
	}
	k.Engine.Run()
	if got := k.MD.Prof.Lock("sb_files-cpu*").Acquisitions; got != 2*48 {
		t.Errorf("sb_files-cpu* acquisitions = %d, want %d (one open and one close per core)", got, 2*48)
	}
	var rows []string
	for _, s := range k.MD.Prof.TopLocks(100) {
		if strings.HasPrefix(s.Name, "sb_files") {
			rows = append(rows, s.Name)
		}
	}
	if len(rows) != 1 || rows[0] != "sb_files-cpu*" {
		t.Errorf("profile rows for the open-file list locks = %q, want one sb_files-cpu* row", rows)
	}

	k = New(topo.New(1), Stock(), 1)
	k.FS.MustMkdirAll("/spool")
	dLock := k.MD.Prof.Lock("d_lock")
	var viaSpool, viaNew int64
	k.Engine.Spawn(0, "p", 0, func(p *sim.Proc) {
		k.FS.Close(p, k.FS.Create(p, "/spool", "new"))
		before := dLock.Acquisitions
		k.FS.Walk(p, "/spool", false)
		viaSpool = dLock.Acquisitions - before
		before = dLock.Acquisitions
		k.FS.Walk(p, "/spool/new", false)
		viaNew = dLock.Acquisitions - before
	})
	k.Engine.Run()
	if viaSpool != 2 || viaNew != 3 {
		t.Errorf("d_lock acquisitions: walking /spool added %d, /spool/new %d; want 2 and 3 (the new dentry's lock counts into d_lock)", viaSpool, viaNew)
	}
}

// TestKernelBuildsOnlyWhatConfigReads pins how many coherence-directory
// lines a 48-core kernel allocates at boot, for a network stack and for
// one listening socket. Each structure with a stock and a per-core form
// builds only the form its Config selects: on Stock the open-file list,
// the skb pool and the accept backlog are one lock and one line each, and
// there is no mount cache; on PK there is no single sb_files list, skb
// free list or backlog lock and line. A PK address space has no
// super-page mutex, since PK faults take each mapping's own.
func TestKernelBuildsOnlyWhatConfigReads(t *testing.T) {
	for _, tc := range []struct {
		name                string
		cfg                 Config
		boot, stack, listen int
	}{
		{"Stock", Stock(), 322, 101, 2},
		{"PK", PK(), 724, 243, 48},
	} {
		k := New(topo.New(48), tc.cfg, 1)
		boot := k.MD.NumLines()
		s := k.NewStack(nil)
		stack := k.MD.NumLines() - boot
		k.Engine.Spawn(0, "listen", 0, func(p *sim.Proc) { s.Listen(p) })
		k.Engine.Run()
		listen := k.MD.NumLines() - boot - stack
		if boot != tc.boot || stack != tc.stack || listen != tc.listen {
			t.Errorf("%s: boot %d, NewStack +%d, Listen +%d lines; want %d, +%d, +%d",
				tc.name, boot, stack, listen, tc.boot, tc.stack, tc.listen)
		}
	}

	asLines := func(cfg Config) int {
		k := New(topo.New(48), cfg, 1)
		before := k.MD.NumLines()
		k.NewAddressSpace(0)
		return k.MD.NumLines() - before
	}
	if stock, pk := asLines(Stock()), asLines(PK()); pk != stock-1 {
		t.Errorf("NewAddressSpace allocates %d lines on PK and %d on Stock; want one fewer on PK (no super-page mutex)", pk, stock)
	}
}
