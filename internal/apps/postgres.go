package apps

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/slock"
	"repro/internal/vfs"
)

// PostgresOpts configures the database workload (§3.4, §5.5).
type PostgresOpts struct {
	// QueriesPerCore is the per-core query budget.
	QueriesPerCore int
	// WriteFraction is the update share: 0 for the read-only workload
	// (Figure 7), 0.05 for the 95%/5% workload (Figure 8).
	WriteFraction float64
	// ModPG applies the paper's application modification: a lock-free
	// row/table lock manager fast path and 1024 instead of 16 lock
	// manager mutexes (§5.5).
	ModPG bool
	// LockMutexes overrides the lock-manager mutex count (defaults: 16
	// stock, 1024 with ModPG).
	LockMutexes int
	// Placement selects where WAL record bytes are homed (zero value:
	// local).
	Placement mem.Placement
}

// DefaultPostgresOpts returns the read-only workload configuration.
func DefaultPostgresOpts() PostgresOpts {
	return PostgresOpts{QueriesPerCore: 400, WriteFraction: 0, ModPG: false}
}

// postgresCosts is PostgreSQL's per-query fixed work (cycles) and sizes.
// Calibrated so one core spends ~1.5% of its time in the kernel on the
// read-only workload (§3.4): the application does almost all the work in
// user mode.
var postgresCosts = struct {
	pgUserWorkPerQuery, pgUserWorkPerWrite, pgRootSpinHold, pgLockMgrWork, pgWALBytes int64
	pgQueryBytes, pgReplyBytes                                                        int64
	pgLseeksPerQuery, pgBatchSize                                                     int
}{
	pgUserWorkPerQuery: 100_000, // B-tree descent, tuple fetch, executor
	pgUserWorkPerWrite: 15_000,  // extra update work
	pgLseeksPerQuery:   12,      // "many times per query on the same two files"
	pgBatchSize:        256,     // queries per network round trip
	pgQueryBytes:       64,      // one query's request on the connection
	pgReplyBytes:       128,     // one query's response
	// pgRootSpinHold is the buffer-cache root page lock hold time. Every
	// query pins the index root; at 48 cores this user-level lock is the
	// paper's residual PK+modPG bottleneck, costing a visible fraction of
	// per-core throughput (§5.5, Figure 12).
	pgRootSpinHold: 1_200,
	pgLockMgrWork:  1_200, // lock manager hash + bookkeeping per acquisition
	pgWALBytes:     400,   // WAL record per update
}

// pgState is the shared PostgreSQL instance state.
type pgState struct {
	// lockMgr is the lock manager's mutex array (16 stock, 1024 modPG).
	// Every transaction in the read/write workload acquires the *table*
	// lock, whose tag always hashes to the same slot — the paper's point
	// that "even a non-conflicting row- or table-level lock acquisition
	// requires exclusively locking one of only 16 global mutexes" (§5.5).
	lockMgr []slock.Mutex
	// rootSpin is the user-level spin lock on the buffer-cache page
	// holding the index root — PK+modPG's residual bottleneck (§5.5).
	rootSpin slock.SpinLock
}

// newPGState builds the shared instance state: the lock-manager mutex
// array (16 stock, 1024 modPG) and the buffer-cache root-page spin lock.
func newPGState(k *kernel.Kernel, opts PostgresOpts) *pgState {
	nMutex := opts.LockMutexes
	if nMutex == 0 {
		if opts.ModPG {
			nMutex = 1024
		} else {
			nMutex = 16
		}
	}
	st := &pgState{rootSpin: slock.NewSpinLock(k.MD, "pg-root-page", 0)}
	st.rootSpin.ChargeUser = true
	st.lockMgr = make([]slock.Mutex, nMutex)
	for i := range st.lockMgr {
		st.lockMgr[i] = slock.NewMutex(k.MD, "pg-lockmgr", i%8)
		st.lockMgr[i].ChargeUser = true
	}
	return st
}

// RunPostgres executes the database workload: one server process per core
// (one middleware connection per core), queries in batches. Three paper
// variants: stock kernel + stock PG, stock kernel + modified PG, and PK +
// modified PG.
func RunPostgres(k *kernel.Kernel, opts PostgresOpts) Result {
	e := k.Engine
	fs := k.FS
	stack := k.NewStack(nil) // long-lived steered connections; card not limiting

	fs.MustCreateFile("/pgdata/base/table", 600<<20)
	fs.MustCreateFile("/pgdata/base/index", 128<<20)
	fs.MustCreateFile("/pgdata/pg_xlog/wal", 0)

	st := newPGState(k, opts)

	cores := k.Machine.NCores
	workers := onlineCores(k)
	for _, c := range workers {
		e.Spawn(c, "postgres", 0, func(p *sim.Proc) {
			conn := stack.NewSteeredConn(p)
			table := fs.Open(p, "/pgdata/base/table")
			index := fs.Open(p, "/pgdata/base/index")
			wal := fs.Open(p, "/pgdata/pg_xlog/wal")
			done := 0
			for done < opts.QueriesPerCore {
				n := postgresCosts.pgBatchSize
				if rem := opts.QueriesPerCore - done; n > rem {
					n = rem
				}
				stack.Recv(p, conn, postgresCosts.pgQueryBytes*int64(n)) // batched queries arrive
				for q := 0; q < n; q++ {
					write := e.Rand.Float64() < opts.WriteFraction
					pgQuery(k, p, st, table, index, wal, write, opts)
				}
				stack.Send(p, conn, postgresCosts.pgReplyBytes*int64(n))
				done += n
			}
			fs.Close(p, table)
			fs.Close(p, index)
			fs.Close(p, wal)
			stack.CloseConn(p, conn)
		})
	}
	e.Run()
	return Result{
		App:        "PostgreSQL",
		Cores:      cores,
		Ops:        int64(len(workers) * opts.QueriesPerCore),
		NetRetries: stack.Retries(),
		NetDups:    stack.Duplicated(),
		WallCycles: e.Now(),
		UserCycles: e.TotalUserCycles(),
		SysCycles:  e.TotalSysCycles(),
		DRAMUtil:   k.DRAMUtilization(),
		LinkUtil:   k.LinkUtilization(),
	}
}

// pgQuery executes one query: index descent with the buffer-cache root
// lock, lseeks on the backing files, optional row-lock + WAL for updates.
func pgQuery(k *kernel.Kernel, p *sim.Proc, st *pgState,
	table, index, wal vfs.File, write bool, opts PostgresOpts) {

	fs := k.FS

	// Buffer cache root page: every query pins the index root briefly.
	st.rootSpin.Acquire(p)
	p.AdvanceUser(postgresCosts.pgRootSpinHold)
	st.rootSpin.Release(p)

	// The lseek storm on the two files (§5.5): the kernel-side
	// bottleneck.
	for i := 0; i < postgresCosts.pgLseeksPerQuery; i++ {
		if i%2 == 0 {
			fs.Lseek(p, table)
		} else {
			fs.Lseek(p, index)
		}
	}

	// Executor work, with realistic per-query variance (plan shape, cache
	// misses). The variance matters: it lets independent backends drift
	// in phase, which is what exposes coincident lseeks to the mutex
	// convoy at high core counts.
	jitter := p.Engine().Rand.Int63n(postgresCosts.pgUserWorkPerQuery / 2)
	p.AdvanceUser(postgresCosts.pgUserWorkPerQuery - postgresCosts.pgUserWorkPerQuery/4 + jitter)

	// Lock manager. The read-only workload aggregates successive
	// transactions, so it "makes little use of row- and table-level
	// locks" (§5.5); the read/write workload cannot aggregate, so every
	// query's transaction takes the shared table lock — which in stock
	// PostgreSQL means exclusively locking the mutex the table's tag
	// hashes to, the same slot for everyone.
	if opts.WriteFraction > 0 {
		st.acquireLock(p, 0 /* the table's fixed hash slot */, opts.ModPG)
		if write {
			// Row locks for the updated tuples (distinct from the table
			// slot when the mutex table allows it).
			rowSlot := 0
			if len(st.lockMgr) > 1 {
				rowSlot = 1 + p.Engine().Rand.Intn(len(st.lockMgr)-1)
			}
			st.acquireLock(p, rowSlot, opts.ModPG)
			// Update execution + WAL record construction. Commit flushes
			// are batched by the walwriter off the critical path, so the
			// per-query cost is user-mode work, not a shared-file append;
			// the record bytes still stream through the memory system
			// under the configured placement (local by default).
			p.AdvanceUser(postgresCosts.pgUserWorkPerWrite)
			k.DRAM.TransferPlaced(p, opts.Placement, postgresCosts.pgWALBytes)
		}
	}
}

// acquireLock models one lock-manager acquisition on the given slot.
func (st *pgState) acquireLock(p *sim.Proc, slot int, modPG bool) {
	if modPG {
		// Lock-free fast path in the uncontended case: one atomic on the
		// lock's shared state plus bookkeeping, no mutex.
		p.AdvanceUser(postgresCosts.pgLockMgrWork / 4)
		return
	}
	m := &st.lockMgr[slot%len(st.lockMgr)]
	m.Acquire(p)
	p.AdvanceUser(postgresCosts.pgLockMgrWork)
	m.Release(p)
}
