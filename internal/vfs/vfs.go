// Package vfs models the Linux VFS paths the paper analyzes: directory
// entry (dentry) caching and reference counting, path name resolution
// through the mount table, per-super-block open-file lists, inode mutexes
// (lseek, directory creates), and the global inode/dcache list locks.
//
// Each object charges its cache-line traffic through mem.Model and its lock
// waits through slock, so the stock configuration reproduces the paper's
// bottlenecks and the PK configuration removes them. Each fix is decided
// where its structure is built; only the rows marked * are also read by an
// operation:
//
//	Figure 1 row                    Config field         decided in
//	  - dentry reference counting   SloppyDentryRef      newDentrySetup
//	  - vfsmount reference counting SloppyVfsmountRef    newMountTable
//	  - dentry spin locks (dlookup) LockFreeDlookup*     newDentrySetup; dgetCompare, Create
//	  - mount point table spin lock PerCoreMountCache    newMountTable
//	  - open-file list              PerCoreOpenList      newSuperBlock
//	  - inode lists                 InodeListAvoidLock   New (FS.createLocks)
//	  - dcache lists                DcacheListAvoidLock  New (FS.createLocks)
//	  - per-inode mutex in lseek    AtomicLseek*         Lseek
//
// Host cost: dentries, and on PK their sloppy counters, are built in
// chunks that grow with the file system (newDentry), the way the kernel
// takes them from a slab cache, and an unlinked dentry is reused once
// reclaimed. A chunk allocates no lines; each dentry allocates its lines
// when it is built, in the order a one-at-a-time build would.
package vfs

import (
	"strings"

	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/rcu"
	"repro/internal/scount"
	"repro/internal/sim"
	"repro/internal/slock"
)

// Config selects stock vs PK behavior per VFS fix.
type Config struct {
	// SloppyDentryRef reference-counts dentries with sloppy counters (§4.3).
	SloppyDentryRef bool
	// SloppyVfsmountRef reference-counts mount points (vfsmount) with
	// sloppy counters (§4.3).
	SloppyVfsmountRef bool
	// LockFreeDlookup checks filename matches in dlookup with a lock-free
	// protocol instead of the per-dentry spin lock (§4.4).
	LockFreeDlookup bool
	// PerCoreMountCache resolves mount points through per-core mount table
	// caches (§4.5).
	PerCoreMountCache bool
	// PerCoreOpenList keeps per-core open-file lists per super block (§4.5).
	PerCoreOpenList bool
	// InodeListAvoidLock avoids the global inode-list locks when not
	// necessary (§4.7).
	InodeListAvoidLock bool
	// DcacheListAvoidLock avoids the global dcache-list locks when not
	// necessary (§4.7).
	DcacheListAvoidLock bool
	// AtomicLseek reads the file size atomically instead of taking the
	// per-inode mutex in lseek (§4.7/§5.5).
	AtomicLseek bool

	// ScalableMountLock replaces the mount table's ticket spin lock with
	// an MCS queue lock. Not one of the paper's fixes: it exists for the
	// "scalable-locks" experiment, which shows that a better lock alone
	// does not fix the vfsmount bottleneck because the table entry and
	// its reference count still serialize.
	ScalableMountLock bool
}

// FS is a mounted in-memory (tmpfs-like) file system plus the global VFS
// state: the dcache, the mount table, and the global list locks.
type FS struct {
	md    *mem.Model
	cfg   Config
	alloc *mm.Allocator

	root   *Dentry
	mounts *MountTable
	sb     *SuperBlock

	// listLocks are the global list locks a destroy takes: inode_lock
	// (the inode lists), then dcache_lock (the dentry LRU lists).
	listLocks []*slock.SpinLock
	// createLocks are the list locks a create takes: listLocks minus each
	// one whose avoid-when-unnecessary fix is on (§4.7).
	createLocks []*slock.SpinLock
	// rcu protects the dcache hash chains: lookups walk them inside
	// read-side sections (both kernels — the dcache has been RCU-based
	// since 2.4 [40]); unlinks defer the dentry free past a grace period.
	rcu *rcu.RCU
	// unlinked holds the dentries Unlink took out of the tree until their
	// grace period has ended and their last reference is gone; reclaim
	// then frees their lines and moves them to free, for newDentrySetup
	// to reuse.
	unlinked, free []*Dentry

	// chunk holds the fresh dentries newDentry hands out, and on PK
	// sloppies their counters, one per dentry; built counts the
	// dentries handed out so far, which sizes the next chunk.
	chunk    []Dentry
	sloppies []scount.Sloppy
	built    int
}

// Dentry chunk sizes: the first chunk holds dentryChunkMin dentries, and
// each later one as many as were built before it, up to dentryChunkMax.
// The unused tail of the last chunk is thus never larger than what was
// built before it, and a large file system allocates once per
// dentryChunkMax dentries.
const (
	dentryChunkMin = 8
	dentryChunkMax = 256
)

// New creates an empty file system. Global structures are homed on chip 0,
// where the boot CPU would have allocated them.
func New(md *mem.Model, alloc *mm.Allocator, cfg Config) *FS {
	fs := &FS{md: md, cfg: cfg, alloc: alloc}
	inodeLock := slock.NewSpinLock(md, "inode_lock", 0)
	dcacheLock := slock.NewSpinLock(md, "dcache_lock", 0)
	fs.listLocks = []*slock.SpinLock{&inodeLock, &dcacheLock}
	if !cfg.InodeListAvoidLock {
		fs.createLocks = append(fs.createLocks, &inodeLock)
	}
	if !cfg.DcacheListAvoidLock {
		fs.createLocks = append(fs.createLocks, &dcacheLock)
	}
	fs.mounts = newMountTable(md, cfg)
	fs.sb = newSuperBlock(md, cfg)
	fs.rcu = rcu.New(md)
	fs.root = fs.newDentrySetup("/", nil, true)
	return fs
}

// MountTable exposes the mount table (for statistics).
func (fs *FS) MountTable() *MountTable { return fs.mounts }

// SuperBlock exposes the super block (for statistics).
func (fs *FS) SuperBlock() *SuperBlock { return fs.sb }

// ---- Setup-time (cost-free) tree construction ----

// newInodeSetup builds an inode without charging simulation time.
func (fs *FS) newInodeSetup(homeChip int) Inode {
	return Inode{
		sizeLine: fs.md.Alloc(homeChip),
		mu:       slock.NewMutex(fs.md, "i_mutex", homeChip),
	}
}

// newDentrySetup builds a dentry without charging simulation time,
// reusing a reclaimed one, and its sloppy counter, when there is one. Its
// lock registers under the class name d_lock, the name contention
// profiles report for every dentry's lock.
func (fs *FS) newDentrySetup(name string, parent *Dentry, isDir bool) *Dentry {
	const homeChip = 0
	if len(fs.free) == 0 {
		fs.reclaim()
	}
	var d *Dentry
	if n := len(fs.free); n > 0 {
		d = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		d = fs.newDentry()
	}
	sloppy, _ := d.ref.(*scount.Sloppy)
	*d = Dentry{
		Name:   name,
		parent: parent,
		inode:  fs.newInodeSetup(homeChip),
	}
	if isDir {
		d.children = map[string]*Dentry{}
	}
	d.fieldLines[0] = fs.md.Alloc(homeChip)
	if fs.cfg.SloppyDentryRef || fs.cfg.LockFreeDlookup {
		// PK layout: fields, lock, and refcount each on their own line.
		d.lock = slock.NewSpinLock(fs.md, "d_lock", homeChip)
	} else {
		// Stock layout: one hot line holds d_lock, d_count, and the
		// fields the lookup compares.
		d.lock = slock.NewSpinLockAt(fs.md, "d_lock", d.fieldLines[0])
	}
	if fs.cfg.SloppyDentryRef {
		sloppy.Reset(homeChip)
		d.ref = sloppy
	} else {
		d.count = scount.NewSharedAt(fs.md, d.fieldLines[0])
		d.ref = &d.count
	}
	if fs.cfg.LockFreeDlookup {
		d.gen = slock.NewGen(fs.md, homeChip)
	}
	if parent != nil {
		parent.children[name] = d
	}
	return d
}

// newDentry takes a never-used dentry from the current chunk, and on PK
// gives it a never-used sloppy counter from the counter chunk, starting
// new chunks when they run out. It allocates no lines: newDentrySetup
// builds the dentry, and resets its counter, as it does a reclaimed one.
func (fs *FS) newDentry() *Dentry {
	if len(fs.chunk) == 0 {
		n := min(max(fs.built, dentryChunkMin), dentryChunkMax)
		fs.chunk = make([]Dentry, n)
		if fs.cfg.SloppyDentryRef {
			fs.sloppies = scount.NewSloppies(fs.md, n)
		}
	}
	d := &fs.chunk[0]
	fs.chunk = fs.chunk[1:]
	fs.built++
	if fs.cfg.SloppyDentryRef {
		d.ref = &fs.sloppies[0]
		fs.sloppies = fs.sloppies[1:]
	}
	return d
}

// reclaim frees each unlinked dentry whose grace period has ended and
// whose last reference is gone: it returns the dentry's lines to the
// memory model and moves the dentry to the free list. The lines are
// unlabeled, so each can be freed; the stock d_lock and d_count share
// fieldLines[0].
func (fs *FS) reclaim() {
	kept := fs.unlinked[:0]
	for _, d := range fs.unlinked {
		if d.ref.InUse() != 0 || !fs.rcu.Expired(d.gp) {
			kept = append(kept, d)
			continue
		}
		fs.md.Free(d.fieldLines[0])
		fs.md.Free(d.inode.sizeLine)
		fs.md.Free(d.inode.mu.Line())
		if l := d.lock.Line(); l != d.fieldLines[0] {
			fs.md.Free(l)
		}
		if fs.cfg.LockFreeDlookup {
			fs.md.Free(d.gen.Line())
		}
		if s, isSloppy := d.ref.(*scount.Sloppy); isSloppy {
			s.Free()
		}
		fs.free = append(fs.free, d)
	}
	clear(fs.unlinked[len(kept):])
	fs.unlinked = kept
}

// MustMkdirAll creates a directory path at setup time (no cost).
func (fs *FS) MustMkdirAll(path string) *Dentry {
	d := fs.root
	for rest := path; rest != ""; {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		if comp == "" {
			continue
		}
		child, ok := d.children[comp]
		if !ok {
			child = fs.newDentrySetup(comp, d, true)
		}
		d = child
	}
	return d
}

// MustCreateFile creates a file with the given size at setup time.
func (fs *FS) MustCreateFile(path string, size int64) *Dentry {
	dir, name := splitDir(path)
	parent := fs.MustMkdirAll(dir)
	if _, ok := parent.children[name]; ok {
		panic("vfs: setup file exists: " + path)
	}
	d := fs.newDentrySetup(name, parent, false)
	d.inode.Size = size
	return d
}

func splitDir(path string) (dir, name string) {
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// ---- Run-time path resolution ----

// Walk resolves a path, charging mount-table access, per-component dcache
// lookups (lock-free or locked compare), and reference counting. If
// holdFinal is true the caller receives a reference to the final dentry and
// must release it with Put. Walk panics on a missing path: workloads
// resolve only paths they created, so ENOENT is a model bug. Empty
// components ("//", a trailing "/") are skipped, and the walk allocates
// nothing.
func (fs *FS) Walk(p *sim.Proc, path string, holdFinal bool) *Dentry {
	p.Advance(costs.syscallEntry)
	fs.mounts.Get(p)
	d := fs.dgetCompare(p, nil, "", path)
	for rest := path; rest != ""; {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		if comp == "" {
			continue
		}
		// follow_mount: every component crossing consults the mount
		// table and touches the vfsmount reference (this is why Exim
		// "causes the kernel to access the vfsmount table dozens of
		// times for each message", §5.2).
		fs.mounts.Get(p)
		fs.mounts.Put(p)
		child := fs.dgetCompare(p, d, comp, path)
		d.ref.Release(p, 1)
		d = child
	}
	if !holdFinal {
		d.ref.Release(p, 1)
	}
	fs.mounts.Put(p)
	return d
}

// dgetCompare performs the dcache lookup step for one component of path
// and returns the child it found with a reference held: an RCU-protected
// hash probe for name among dir's children (a nil dir stands for the
// root's own lookup), field comparison (lock-free with generation
// counters in PK, under the per-dentry spin lock in stock), and a
// reference count acquire. The lock-free compare charges the dentry's
// compared lines in one batch per probe. The RCU section is why
// the *walk* itself scales on both kernels; the stock bottlenecks are the
// per-dentry lock and the refcount, which live outside RCU's protection
// (§4.4). The probe runs inside the section, so a concurrent Unlink
// cannot reclaim the child before its reference is taken.
func (fs *FS) dgetCompare(p *sim.Proc, dir *Dentry, name, path string) *Dentry {
	fs.rcu.ReadLock(p)
	d := fs.root
	if dir != nil {
		var ok bool
		if d, ok = dir.children[name]; !ok {
			panic("vfs: walk of missing path " + path)
		}
	}
	p.Advance(costs.hashWork)
	if fs.cfg.LockFreeDlookup {
		if d.gen.TryRead(p, d.fieldLines[:]) {
			d.ref.Acquire(p, 1)
			fs.rcu.ReadUnlock(p)
			return d
		}
	}
	d.lock.Acquire(p)
	p.Advance(fs.md.Read(p.Core(), d.fieldLines[0], p.Now()))
	d.lock.Release(p)
	d.ref.Acquire(p, 1)
	fs.rcu.ReadUnlock(p)
	return d
}

// Put releases a dentry reference obtained from Walk/Open/Create.
func (fs *FS) Put(p *sim.Proc, d *Dentry) {
	d.ref.Release(p, 1)
}

// ---- File operations ----

// File is an open file description. It is a small value: Open and Create
// return it, and the caller passes it back until Close.
type File struct {
	Dentry *Dentry

	openShard int // the open-file list shard that holds this file
}

// Open resolves the path and installs the file on the super block's
// open-file list.
func (fs *FS) Open(p *sim.Proc, path string) File {
	d := fs.Walk(p, path, true)
	return File{Dentry: d, openShard: fs.sb.Add(p)}
}

// Close removes the file from the open list and drops the reference.
func (fs *FS) Close(p *sim.Proc, f File) {
	p.Advance(costs.syscallEntry)
	fs.sb.Remove(p, f.openShard)
	fs.Put(p, f.Dentry)
}

// Stat resolves the path and reads inode attributes.
func (fs *FS) Stat(p *sim.Proc, path string) {
	d := fs.Walk(p, path, true)
	p.Advance(fs.md.Read(p.Core(), d.inode.sizeLine, p.Now()) + costs.statWork)
	fs.Put(p, d)
}

// Lseek positions the file, reading i_size. The stock kernel takes the
// inode mutex; PK uses an atomic read (§5.5).
func (fs *FS) Lseek(p *sim.Proc, f File) {
	p.Advance(costs.syscallEntry)
	ino := &f.Dentry.inode
	if fs.cfg.AtomicLseek {
		p.Advance(fs.md.Read(p.Core(), ino.sizeLine, p.Now()))
		return
	}
	ino.mu.Acquire(p)
	p.Advance(fs.md.Read(p.Core(), ino.sizeLine, p.Now()))
	ino.mu.Release(p)
}

// Read charges a buffered read of n bytes: lock-free page-cache lookup plus
// the copy to user space.
func (fs *FS) Read(p *sim.Proc, f File, n int64) {
	p.Advance(costs.syscallEntry)
	pages := 1 + n/mm.PageBytes
	p.Advance(pages*costs.hashWork + n/costs.copyPerByte)
}

// Append writes n bytes at the end of the file under the inode mutex,
// allocating tmpfs pages as needed.
func (fs *FS) Append(p *sim.Proc, f File, n int64) {
	p.Advance(costs.syscallEntry)
	ino := &f.Dentry.inode
	ino.mu.Acquire(p)
	oldPages := (ino.Size + mm.PageBytes - 1) / mm.PageBytes
	ino.Size += n
	newPages := (ino.Size + mm.PageBytes - 1) / mm.PageBytes
	if newPages > oldPages {
		fs.alloc.AllocPages(p, p.Chip(), newPages-oldPages)
	}
	p.Advance(n / costs.copyPerByte)
	p.Advance(fs.md.Write(p.Core(), ino.sizeLine, p.Now()))
	ino.mu.Release(p)
}

// Create makes a new file in the directory at dirPath. The parent
// directory's i_mutex serializes creates in the same directory — the
// residual Exim bottleneck (§5.2). The returned file is open.
func (fs *FS) Create(p *sim.Proc, dirPath, name string) File {
	dir := fs.Walk(p, dirPath, true)
	dir.inode.mu.Acquire(p)
	if _, exists := dir.children[name]; exists {
		panic("vfs: create of existing file " + dirPath + "/" + name)
	}
	fs.chargeListLocks(p, fs.createLocks)
	d := fs.newDentrySetup(name, dir, false)
	if fs.cfg.LockFreeDlookup {
		d.gen.BeginWrite(p)
		d.gen.EndWrite(p)
	}
	d.ref.Acquire(p, 1) // the returned open file holds a reference
	p.Advance(costs.createWork)
	dir.inode.mu.Release(p)

	f := File{Dentry: d, openShard: fs.sb.Add(p)}
	fs.Put(p, dir)
	return f
}

// Unlink removes a file. The dentry is destroyed, which requires list
// maintenance under the global locks and, for sloppy refcounts, an
// expensive reconciliation to confirm the count is zero (§4.3). The
// dentry is reclaimed, its lines freed and the struct kept for a later
// Create, once its RCU grace period has ended and no reference to it is
// left.
func (fs *FS) Unlink(p *sim.Proc, dirPath, name string) {
	dir := fs.Walk(p, dirPath, true)
	dir.inode.mu.Acquire(p)
	d, ok := dir.children[name]
	if !ok {
		panic("vfs: unlink of missing file " + dirPath + "/" + name)
	}
	delete(dir.children, name)
	fs.chargeListLocks(p, fs.listLocks)
	if s, isSloppy := d.ref.(*scount.Sloppy); isSloppy {
		s.Reconcile(p)
	}
	// The dentry itself is freed after a grace period so concurrent
	// RCU-walkers never dereference freed memory.
	d.gp = fs.rcu.CallRCU(p)
	fs.unlinked = append(fs.unlinked, d)
	p.Advance(costs.unlinkWork)
	dir.inode.mu.Release(p)
	fs.Put(p, dir)
}

// chargeListLocks takes and releases each global list lock in ls in
// turn: the stock kernel takes them on every inode and dentry create and
// destroy; PK avoids them except when a list is really modified (destroy).
func (fs *FS) chargeListLocks(p *sim.Proc, ls []*slock.SpinLock) {
	for _, l := range ls {
		l.Acquire(p)
		p.Advance(costs.listLockHold)
		l.Release(p)
	}
}

// ---- Anonymous (socket) inodes ----

// CreateAnon charges the creation of a socket's anonymous inode and
// dentry (sockfs). Creating and destroying them stresses the global inode
// and dcache list locks, which is the "inode lists"/"dcache lists"
// bottleneck memcached and Apache hit. Nothing reads a socket inode's
// fields, so none is built.
func (fs *FS) CreateAnon(p *sim.Proc) {
	fs.chargeListLocks(p, fs.createLocks)
	p.Advance(costs.createWork / 2)
}

// ReleaseAnon charges freeing a socket inode. PK defers and batches the
// list removals, avoiding the global locks on this path too; we model
// that as skipping the lock (the deferred work is off the critical path).
func (fs *FS) ReleaseAnon(p *sim.Proc) {
	fs.chargeListLocks(p, fs.createLocks)
	p.Advance(costs.unlinkWork / 2)
}
