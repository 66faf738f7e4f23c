package slock

import "repro/internal/fprint"

// costs is the contention cost table (cycles) shared by the spin lock,
// adaptive mutex, and MCS lock models. The values are order-of-magnitude
// estimates consistent with the paper's qualitative statements; the
// reproduced curves depend on their relative, not absolute, magnitudes.
var costs = struct {
	spinTrafficPerWaiter, futexWake, mutexSpinWindow, starvationPerWaiter int64
}{
	// spinTrafficPerWaiter is the holder slowdown per spinning waiter per
	// release — the non-scalable term.
	spinTrafficPerWaiter: 60,
	// futexWake is the cost of waking a sleeping mutex waiter.
	futexWake: 3000,
	// mutexSpinWindow is how long an adaptive mutex busy-waits before
	// yielding to the futex path. Contended acquires whose total wait fits
	// the window never sleep.
	mutexSpinWindow: 3000,
	// starvationPerWaiter is the extra re-acquire cost a woken mutex waiter
	// pays per concurrent waiter (lost races to spinning newcomers).
	starvationPerWaiter: 400,
}

var fingerprint = fprint.New("slock").Table(costs).Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// table; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
