package apps

import (
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// MemcachedOpts configures the object-cache workload (§3.2, §5.3).
type MemcachedOpts struct {
	// RequestsPerCore is the per-core request budget.
	RequestsPerCore int
	// UseNIC includes the IXGBE envelope; disable to isolate kernel
	// effects.
	UseNIC bool
}

// DefaultMemcachedOpts returns the paper's configuration.
func DefaultMemcachedOpts() MemcachedOpts {
	return MemcachedOpts{RequestsPerCore: 300, UseNIC: true}
}

// memcachedCosts is memcached's per-request work and message sizes.
// memcachedUserWork is the user-mode hash-table lookup per request,
// calibrated so one core spends ~80% of its time in the kernel (§3.2).
// Lookups are for non-existent keys (the paper's choice, maximizing
// kernel load relative to application work); the request and response
// sizes match the paper (68 and 64 bytes).
var memcachedCosts = struct {
	memcachedUserWork, memcachedRequestBytes, memcachedResponseBytes int64
}{
	memcachedUserWork:      1_600,
	memcachedRequestBytes:  68,
	memcachedResponseBytes: 64,
}

// RunMemcached executes the object-cache workload: one memcached instance
// per core, each with its own UDP port and hardware queue; clients query
// for non-existent keys in batches.
func RunMemcached(k *kernel.Kernel, opts MemcachedOpts) Result {
	e := k.Engine
	var nic *netsim.NIC
	if opts.UseNIC {
		nic = netsim.NewNICFor(k.Machine, netsim.MemcachedNIC(), k.Machine.NCores)
	}
	stack := k.NewStack(nic)

	cores := k.Machine.NCores
	workers := onlineCores(k)
	for _, c := range workers {
		e.Spawn(c, "memcached", 0, func(p *sim.Proc) {
			sock := stack.NewUDPSocket(p)
			for i := 0; i < opts.RequestsPerCore; i++ {
				stack.RecvUDP(p, sock, memcachedCosts.memcachedRequestBytes)
				p.AdvanceUser(memcachedCosts.memcachedUserWork)
				stack.SendUDP(p, sock, memcachedCosts.memcachedResponseBytes)
			}
			stack.CloseUDP(p, sock)
		})
	}
	e.Run()
	return Result{
		App:        "memcached",
		Cores:      cores,
		Ops:        int64(len(workers) * opts.RequestsPerCore),
		NetRetries: stack.Retries(),
		NetDups:    stack.Duplicated(),
		WallCycles: e.Now(),
		UserCycles: e.TotalUserCycles(),
		SysCycles:  e.TotalSysCycles(),
		// Packet DMA landings are the bulk traffic here (node-0 pools
		// stock, per-core pools with LocalDMABuf).
		DRAMUtil: k.DRAMUtilization(),
		LinkUtil: k.LinkUtilization(),
	}
}
