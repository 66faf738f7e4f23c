package apps

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/proc"
	"repro/internal/sim"
)

// GmakeOpts configures the parallel kernel build (§3.5, §5.6).
type GmakeOpts struct {
	// Objects is the number of compilation units in the build DAG.
	Objects int
	// Placement selects where the compilers' source/object streams are
	// homed (zero value: local tmpfs pages).
	Placement mem.Placement
}

// DefaultGmakeOpts returns a scaled-down Linux-kernel-like build.
func DefaultGmakeOpts() GmakeOpts {
	return GmakeOpts{Objects: 480}
}

// gmakeCosts is gmake's per-object work (cycles), file sizes and serial
// stages. The compiler dominates; system time is 7.6% at one core
// (§3.5). Compile times vary: most objects are small, a few are large
// (drivers vs. tiny headers), which creates the straggler tail the paper
// mentions.
var gmakeCosts = struct {
	gmakeBaseCompile, gmakeSysPerJob, gmakeSourceBytes, gmakeObjBytes int64
	gmakeSerialPrepFrac, gmakeSerialLinkFrac                          float64
}{
	gmakeBaseCompile: 5_000_000, // median compile, user cycles (~2 ms)
	gmakeSysPerJob:   330_000,   // faults, pipes, file I/O inside the compiler
	gmakeSourceBytes: 20_000,
	gmakeObjBytes:    12_000,
	// The serial stages' shares of total build work: the start
	// (configure, header generation) and the final link. They are small:
	// the paper measures a 35x speedup on 48 cores, which bounds the
	// Amdahl serial share near 0.8%.
	gmakeSerialPrepFrac: 0.004,
	gmakeSerialLinkFrac: 0.004,
}

// RunGmake executes one parallel build and reports builds/hour/core.
func RunGmake(k *kernel.Kernel, opts GmakeOpts) Result {
	e := k.Engine
	fs := k.FS
	// Sources and objects spread across per-subsystem directories, as in
	// a kernel tree; this avoids a single hot directory dentry, which a
	// real build does not have either.
	var buf [64]byte
	for d := 0; d < 16; d++ {
		fs.MustMkdirAll(string(gmakeObjDir(buf[:0], d)))
	}
	for j := 0; j < opts.Objects; j++ {
		fs.MustCreateFile(string(gmakeSource(buf[:0], j)), gmakeCosts.gmakeSourceBytes)
	}

	cores := k.Machine.NCores

	// Deterministic compile-cost mix: mostly uniform with a moderate
	// tail, giving the straggler effect the paper mentions without
	// dominating the schedule.
	jobCost := func(j int) int64 {
		switch {
		case j%19 == 0:
			return 3 * gmakeCosts.gmakeBaseCompile
		case j%7 == 0:
			return 3 * gmakeCosts.gmakeBaseCompile / 2
		default:
			return gmakeCosts.gmakeBaseCompile
		}
	}
	var totalWork int64
	for j := 0; j < opts.Objects; j++ {
		totalWork += jobCost(j)
	}
	prep := int64(gmakeCosts.gmakeSerialPrepFrac * float64(totalWork))
	link := int64(gmakeCosts.gmakeSerialLinkFrac * float64(totalWork))

	workers := onlineCores(k)
	next := 0              // shared job queue cursor (engine-serialized)
	active := len(workers) // workers still running

	e.Spawn(k.FirstOnline(), "make", 0, func(master *sim.Proc) {
		// Serial preparation stage.
		master.AdvanceUser(prep)
		for _, c := range workers {
			master.Engine().Spawn(c, "cc", master.Now(), func(p *sim.Proc) {
				as := k.NewAddressSpace(p.Chip())
				self := k.Procs.NewInitProcess(as)
				for {
					j := next
					if j >= opts.Objects {
						break
					}
					next++
					gmakeCompile(k, p, self, j, jobCost(j), opts.Placement)
				}
				active--
				if active == 0 {
					// Last finisher performs the serial link.
					p.AdvanceUser(link)
				}
			})
		}
	})
	e.Run()
	return Result{
		App:        "gmake",
		Cores:      cores,
		Ops:        1, // one build
		WallCycles: e.Now(),
		UserCycles: e.TotalUserCycles(),
		SysCycles:  e.TotalSysCycles(),
		DRAMUtil:   k.DRAMUtilization(),
		LinkUtil:   k.LinkUtilization(),
	}
}

// gmakeSource appends the path of job j's source file to b.
func gmakeSource(b []byte, j int) []byte {
	b = appendNum(append(b, "/build/src/d"...), int64(j%16), 2)
	return append(appendNum(append(b, "/f"...), int64(j), 3), ".c"...)
}

// gmakeObjDir appends the path of object directory d to b.
func gmakeObjDir(b []byte, d int) []byte {
	return appendNum(append(b, "/build/obj/d"...), int64(d), 2)
}

// gmakeCompile models one compiler invocation: fork+exec, read the source,
// compile, write the object file.
func gmakeCompile(k *kernel.Kernel, p *sim.Proc, self *proc.Process, j int, cost int64, pl mem.Placement) {
	fs := k.FS
	child := k.Procs.Fork(p, self, self.AS)
	k.Procs.ChildStart(p, child)
	k.Procs.Exec(p)

	var buf [64]byte
	src := fs.Open(p, string(gmakeSource(buf[:0], j)))
	fs.Read(p, src, gmakeCosts.gmakeSourceBytes)
	fs.Close(p, src)

	p.AdvanceUser(cost)
	p.Advance(gmakeCosts.gmakeSysPerJob)

	// Each object file is f<job>-<core>.o.
	objDir := string(gmakeObjDir(buf[:0], j%16))
	name := appendNum(append(buf[:0], 'f'), int64(j), 3)
	name = appendNum(append(name, '-'), int64(p.Core()), 0)
	obj := fs.Create(p, objDir, string(append(name, ".o"...)))
	fs.Append(p, obj, gmakeCosts.gmakeObjBytes)
	fs.Close(p, obj)
	// The compiler's source read and object write stream through the
	// memory system under the configured placement (local by default:
	// tmpfs pages are allocated on the faulting chip).
	k.DRAM.TransferPlaced(p, pl, gmakeCosts.gmakeSourceBytes+gmakeCosts.gmakeObjBytes)

	k.Procs.Exit(p, child)
}
