package apps

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mm"
	"repro/internal/sim"
)

// PedsortOpts configures the file-indexer workload (§3.6, §5.7).
type PedsortOpts struct {
	// Threads runs the original version: one process, one thread per
	// core. All threads share an address space, so mmap/munmap of each
	// input file serializes on the process's mmap_sem. When false, each
	// core runs its own process (the paper's ~10-line fix), eliminating
	// the shared address space.
	Threads bool
	// Files is the input file count (scaled down from the paper's
	// 33,312; work per file is preserved).
	Files int
	// Placement selects where the merge phase's index stream is homed
	// (zero value: local).
	Placement mem.Placement
}

// DefaultPedsortOpts returns the scaled-down corpus.
func DefaultPedsortOpts() PedsortOpts {
	return PedsortOpts{Files: 960}
}

// pedsortCosts is pedsort's work table. User-dominated: 1.9% kernel time
// at one core (§3.6). The per-byte work includes hash-table maintenance
// and periodic in-memory sorting, which dominate real indexing; this keeps
// the kernel-operation rate (opens, mmaps) at its realistic, low level
// even though the corpus is scaled down.
var pedsortCosts = struct {
	pedsortHashPerByte, pedsortSortPerByte, pedsortFlushBytes int64
	pedsortFileBytes, pedsortSortSetBytes                     int64
	pedsortFlushEvery                                         int
	pedsortMissPenalty, pedsortThreadedTax                    float64
}{
	pedsortHashPerByte: 68,     // hashing + table maintenance per input byte
	pedsortSortPerByte: 25,     // merge/sort cost per input byte (phase 2)
	pedsortMissPenalty: 4.0,    // user-time multiplier at 100% L3 miss
	pedsortThreadedTax: 1.15,   // thread-safe glibc variants
	pedsortFlushBytes:  64_000, // intermediate index flush size
	pedsortFlushEvery:  24,     // files per flush
	// pedsortFileBytes is the average input file size (the paper's
	// corpus is 368 MB over 33,312 files ≈ 11.3 KB/file).
	pedsortFileBytes: 11_300,
	// pedsortSortSetBytes is the effective per-core working set of the
	// final msort_with_tmp phase, which contends for L3 capacity.
	pedsortSortSetBytes: 4 << 20,
}

// pedsortSource appends the path of corpus file f to b.
func pedsortSource(b []byte, f int) []byte {
	b = appendNum(append(b, "/src/d"...), int64(f%32), 2)
	return appendNum(append(b, "/f"...), int64(f), 4)
}

// RunPedsort executes one indexing run and reports jobs/hour/core.
func RunPedsort(k *kernel.Kernel, opts PedsortOpts) Result {
	e := k.Engine
	fs := k.FS
	// The corpus is a source tree: files spread over many directories,
	// so no single directory dentry is hot.
	fs.MustMkdirAll("/tmp/ind")
	var buf [32]byte
	for f := 0; f < opts.Files; f++ {
		fs.MustCreateFile(string(pedsortSource(buf[:0], f)), pedsortCosts.pedsortFileBytes)
	}

	cores := k.Machine.NCores
	workers := onlineCores(k)
	// One shared address space for the threaded version; private ones per
	// core otherwise.
	var sharedAS *mm.AddressSpace
	if opts.Threads {
		sharedAS = k.NewAddressSpace(0)
	}

	next := 0 // shared work queue of input files (engine-serialized)
	for _, c := range workers {
		e.Spawn(c, "pedsort", 0, func(p *sim.Proc) {
			as := sharedAS
			if as == nil {
				as = k.NewAddressSpace(p.Chip())
			}
			userTax := 1.0
			if opts.Threads {
				userTax = pedsortCosts.pedsortThreadedTax // thread-safe glibc variants
			}
			// Phase 1: pull files, mmap-read, hash words, flush
			// periodically.
			var buf [32]byte // file names, one at a time
			processed := 0
			for {
				f := next
				if f >= opts.Files {
					break
				}
				next++
				src := fs.Open(p, string(pedsortSource(buf[:0], f)))
				r := as.Mmap(p, pedsortCosts.pedsortFileBytes, false)
				for i := int64(0); i < r.Pages(); i++ {
					// Faulted pages come from the local node; their zero
					// traffic charges this chip's controller.
					as.Fault(p, r, k.DRAM)
				}
				p.AdvanceUser(int64(float64(pedsortCosts.pedsortFileBytes*pedsortCosts.pedsortHashPerByte) * userTax))
				as.Munmap(p, r)
				fs.Close(p, src)
				processed++
				if processed%pedsortCosts.pedsortFlushEvery == 0 {
					name := appendNum(append(buf[:0], "int-"...), int64(c), 0)
					name = appendNum(append(name, '-'), int64(processed), 0)
					out := fs.Create(p, "/tmp/ind", string(name))
					fs.Append(p, out, pedsortCosts.pedsortFlushBytes)
					fs.Close(p, out)
				}
			}
			// Phase 2: merge the intermediate indexes. Total merge work
			// is constant (the paper caps each output index at 200,000
			// entries precisely so aggregate work does not depend on the
			// core count), so each core merges 1/cores of it. msort's
			// per-core working set shares the chip's L3 with every other
			// active core on the chip; misses turn into user-time stalls.
			chip := p.Chip()
			wsOnChip := pedsortCosts.pedsortSortSetBytes * int64(k.Machine.CoresOnChip(chip))
			miss := mem.MissRatio(wsOnChip, k.Machine.L3Bytes)
			totalMerge := float64(int64(opts.Files)*pedsortCosts.pedsortFileBytes*pedsortCosts.pedsortSortPerByte) * userTax
			sortWork := totalMerge / float64(len(workers))
			sortWork *= 1 + float64(pedsortCosts.pedsortMissPenalty*miss) // rounded: never fused, so every GOARCH agrees
			p.AdvanceUser(int64(sortWork))
			// The merge streams this core's share of the intermediate
			// index through the memory system under the configured
			// placement (local by default, matching the first-touch
			// pages the hash phase faulted in).
			k.DRAM.TransferPlaced(p, opts.Placement, int64(opts.Files)*pedsortCosts.pedsortFileBytes/int64(len(workers)))
			out := fs.Create(p, "/tmp/ind", string(appendNum(append(buf[:0], "final-"...), int64(c), 0)))
			fs.Append(p, out, pedsortCosts.pedsortFlushBytes)
			fs.Close(p, out)
		})
	}
	e.Run()
	return Result{
		App:        "pedsort",
		Cores:      cores,
		Ops:        1, // one indexing job
		WallCycles: e.Now(),
		UserCycles: e.TotalUserCycles(),
		SysCycles:  e.TotalSysCycles(),
		DRAMUtil:   k.DRAMUtilization(),
		LinkUtil:   k.LinkUtilization(),
	}
}
