package apps

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MetisOpts configures the MapReduce workload (§3.7, §5.8).
type MetisOpts struct {
	// InputBytes is the in-memory input size (scaled down from the
	// paper's 2 GB; per-byte work is preserved).
	InputBytes int64
	// SuperPages maps the temporary tables with 2 MB pages via
	// hugetlbfs instead of 4 KB pages — the application-side half of the
	// paper's fix (the kernel-side halves are PerMappingSuperPageMutex
	// and NoncachingSuperPageZero).
	SuperPages bool
	// Placement selects where the reduce phase's table stream is homed
	// (zero value: local, the faulted-in first-touch placement).
	Placement mem.Placement
}

// DefaultMetisOpts returns the scaled-down inverted-index job.
func DefaultMetisOpts() MetisOpts {
	return MetisOpts{InputBytes: 96 << 20, SuperPages: false}
}

// metisCosts is Metis's work table. Mostly user time: 3% kernel at one
// core, rising to 16% at 48 in the stock 4 KB configuration (§3.7).
var metisCosts = struct {
	metisMapPerByte, metisReducePerByte int64
	metisTableBytesPerInputByte         float64
}{
	metisMapPerByte:    4, // user cycles per input byte in the map phase
	metisReducePerByte: 2, // user cycles per table byte in the reduce phase
	// metisTableBytesPerInputByte is how much temporary-table memory the
	// inverted-index application allocates per input byte.
	metisTableBytesPerInputByte: 1.5,
}

// RunMetis executes one inverted-index job and reports jobs/hour/core.
// All workers share one address space: Metis is a threaded library.
func RunMetis(k *kernel.Kernel, opts MetisOpts) Result {
	e := k.Engine
	cores := k.Machine.NCores
	workers := onlineCores(k)
	sharedAS := k.NewAddressSpace(0)

	// The input is fixed; the online workers split it evenly, so an
	// offlined core's share lands on the survivors.
	perCoreInput := opts.InputBytes / int64(len(workers))
	tableBytes := int64(float64(perCoreInput) * metisCosts.metisTableBytesPerInputByte)

	// Map/reduce barrier: reducers start only when every mapper is done.
	remaining := len(workers)
	var waiting []*sim.Proc
	barrier := func(p *sim.Proc) {
		remaining--
		if remaining > 0 {
			waiting = append(waiting, p)
			p.Block()
			return
		}
		for _, w := range waiting {
			w.Wake(p.Now())
		}
		waiting = nil
	}

	for _, c := range workers {
		e.Spawn(c, "metis", 0, func(p *sim.Proc) {
			// Map phase: allocate temporary tables with mmap and fault
			// them in while scanning the input.
			r := sharedAS.Mmap(p, tableBytes, opts.SuperPages)
			pages := r.Pages()
			userPerFault := perCoreInput * metisCosts.metisMapPerByte / pages
			for i := int64(0); i < pages; i++ {
				sharedAS.Fault(p, r, k.DRAM)
				p.AdvanceUser(userPerFault)
			}
			barrier(p)
			// Reduce phase: stream the emitted table through the memory
			// system under the configured placement. The default (local)
			// matches the faulted-in first-touch pages; the paper measures
			// this phase at 50.0 GB/s aggregate against a 51.5 GB/s machine
			// maximum at 48 cores, and with per-chip controllers the
			// saturation shows up on every populated chip at once. Striped
			// or explicit-home placement moves the same stream onto the HT
			// links instead.
			k.DRAM.TransferPlaced(p, opts.Placement, tableBytes)
			p.AdvanceUser(tableBytes * metisCosts.metisReducePerByte)
		})
	}
	e.Run()
	return Result{
		App:        "Metis",
		Cores:      cores,
		Ops:        1,
		WallCycles: e.Now(),
		UserCycles: e.TotalUserCycles(),
		SysCycles:  e.TotalSysCycles(),
		DRAMUtil:   k.DRAMUtilization(),
		LinkUtil:   k.LinkUtilization(),
	}
}
