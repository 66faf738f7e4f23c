// Package apps implements the seven MOSBENCH applications as workload
// models that issue the same kernel-operation mix the paper describes
// (§3): Exim, memcached, Apache, PostgreSQL, gmake, Psearchy's pedsort,
// and Metis. Each Run* function executes a closed-loop steady-state run on
// a kernel.Kernel and reports throughput and CPU-time breakdowns in the
// units of the paper's figures.
//
// The applications are drivers, not ports: per §5.1, the goal is "to
// evaluate the Linux kernel's multicore performance, using the
// applications to generate a reasonably realistic mix of system calls."
// Fixed user-mode work constants are calibrated so single-core
// kernel-time fractions roughly match §3's measurements (Exim 69%,
// memcached 80%, Apache 60%, PostgreSQL 1.5%, gmake 7.6%, pedsort 1.9%,
// Metis 3%).
package apps

import (
	"strconv"

	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/topo"
)

// onlineCores returns the cores workloads may spawn workers on: every
// enabled core the kernel's fault plan has not offlined. On a healthy
// machine this is simply 0..NCores-1, and the per-worker budgets and
// work splits below reduce to their pre-fault forms.
func onlineCores(k *kernel.Kernel) []int {
	out := make([]int, 0, k.Machine.NCores)
	for c := 0; c < k.Machine.NCores; c++ {
		if k.Online(c) {
			out = append(out, c)
		}
	}
	return out
}

// appendNum appends n in decimal, zero-padded to width digits: what fmt's
// %0*d prints for the non-negative numbers in file names. The workloads
// name a file or two per operation, and fmt.Sprintf would also box each
// number past 255 into an interface, a second allocation per name.
func appendNum(b []byte, n int64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], n, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// Result is the outcome of one application run at one core count.
type Result struct {
	// App is the application name.
	App string
	// Cores is the number of active cores.
	Cores int
	// Ops is the number of application-level operations completed
	// (messages, requests, queries, builds, jobs).
	Ops int64
	// WallCycles is the virtual time the run took.
	WallCycles int64
	// UserCycles and SysCycles are total busy cycles across cores.
	UserCycles, SysCycles int64
	// DRAMUtil is each chip's memory-controller busy fraction over the
	// run, for workloads that stream bulk data (nil otherwise).
	DRAMUtil []float64
	// LinkUtil is each HyperTransport link's busy fraction over the run,
	// alongside DRAMUtil for the same workloads.
	LinkUtil []float64
	// NetRetries counts packets the network stack resent after injected
	// NIC drops (0 on a healthy machine or for loopback-only workloads),
	// plus, in open-loop runs, client retransmissions driven by timeouts
	// and link loss.
	NetRetries int64
	// NetDups counts spurious duplicate deliveries the stack processed
	// and discarded: injected NIC dups. (Open-loop memcached re-serves
	// client retransmissions in full, so they add none.)
	NetDups int64

	// Open-loop fields, populated only by the RunXOpenLoop runners. Ops
	// then counts goodput: requests answered within the client's patience.
	//
	// Sojourns is the client-perceived latency histogram of completed
	// requests (nil for closed-loop runs).
	Sojourns *load.Hist
	// OfferedOps = Ops + ShedOps + LateOps: every offered request is
	// accounted exactly once.
	OfferedOps int64
	// ShedOps counts requests refused at the bounded accept queue.
	ShedOps int64
	// LateOps counts requests served after the client gave up.
	LateOps int64
	// OfferedPerCore is the offered arrival rate per core (req/sec).
	OfferedPerCore float64
}

// RetriesPerOp returns resent packets per application operation — the
// "retries bounded" metric of the degrade experiment.
func (r Result) RetriesPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.NetRetries) / float64(r.Ops)
}

// DupsPerOp returns discarded duplicate deliveries per application
// operation, alongside RetriesPerOp in the sweep output.
func (r Result) DupsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.NetDups) / float64(r.Ops)
}

// SojournMicros returns the q-quantile of client-perceived latency in
// microseconds, 0 for closed-loop runs (no sojourn histogram).
func (r Result) SojournMicros(q float64) float64 {
	if r.Sojourns == nil || r.Sojourns.Count() == 0 {
		return 0
	}
	return topo.CyclesToMicros(r.Sojourns.Quantile(q))
}

// Throughput returns total operations per second of virtual time.
func (r Result) Throughput() float64 {
	if r.WallCycles == 0 {
		return 0
	}
	return float64(r.Ops) / topo.CyclesToSec(r.WallCycles)
}

// PerCore returns operations per second per core — the y-axis of the
// paper's scalability plots.
func (r Result) PerCore() float64 { return r.Throughput() / float64(r.Cores) }

// UserMicrosPerOp returns user-mode CPU microseconds consumed per
// operation, the paper's second y-axis.
func (r Result) UserMicrosPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return topo.CyclesToMicros(r.UserCycles) / float64(r.Ops)
}

// SysMicrosPerOp returns system-mode CPU microseconds per operation.
func (r Result) SysMicrosPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return topo.CyclesToMicros(r.SysCycles) / float64(r.Ops)
}

// KernelFraction returns the fraction of busy CPU time spent in the kernel.
func (r Result) KernelFraction() float64 {
	total := r.UserCycles + r.SysCycles
	if total == 0 {
		return 0
	}
	return float64(r.SysCycles) / float64(total)
}
