package sim

import "fmt"

// Resource models a serially shared hardware resource with a fixed per-use
// service time semantics: each Use occupies the resource exclusively. It is
// the right model for devices like a NIC's internal packet engine, where
// cores queue work that the device completes one unit at a time.
//
// Because the engine dispatches procs in nondecreasing time order, a simple
// high-water "free at" timestamp implements an implicit FIFO queue.
type Resource struct {
	// Name appears in diagnostics.
	Name string

	freeAt int64
	uses   int64
	busy   int64 // total busy cycles, for utilization reporting
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource {
	return &Resource{Name: name}
}

// Use makes proc p wait until the resource is free, then occupies it for
// svc cycles. The proc's clock advances to the completion time; the wait
// does not occupy the proc's core (the CPU is free to be used by other
// procs while this proc waits on the device, matching how a core blocked on
// a NIC queue full condition spins in the driver — callers that want to
// model busy-waiting should Advance separately).
func (r *Resource) Use(p *Proc, svc int64) {
	if svc < 0 {
		panic(fmt.Sprintf("sim: negative service time %d on %s", svc, r.Name))
	}
	r.freeAt = max(p.Now(), r.freeAt) + svc
	r.uses++
	r.busy += svc
	p.IdleUntil(r.freeAt)
}

// Uses returns how many times the resource has been used.
func (r *Resource) Uses() int64 { return r.uses }

// BusyCycles returns the total cycles the resource has been occupied.
func (r *Resource) BusyCycles() int64 { return r.busy }
