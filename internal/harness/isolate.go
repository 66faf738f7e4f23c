package harness

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// FailedPoint records one sweep point that produced no measurement: its
// body panicked or wedged past the wall-clock watchdog.
type FailedPoint struct {
	// Variant and Cores identify the point the same way Series.Points do.
	// For experiments that reuse the Cores column for another axis
	// (degrade's severity percent), Cores carries that axis.
	Variant string
	Cores   int
	// Err is the failure description (panic value and stack, or timeout).
	Err string
}

// pointTimeoutError marks a watchdog expiry: the point body may still be
// running, so the sweep worker leaves its engine slot to it.
type pointTimeoutError struct{ d time.Duration }

func (e pointTimeoutError) Error() string {
	return fmt.Sprintf("timed out after %s (point abandoned)", e.d)
}

// defaultPointTimeout bounds one sweep point's wall clock. The slowest
// legitimate point (a full 48-core non-quick simulation) finishes in
// seconds, so two minutes is purely a wedge detector.
const defaultPointTimeout = 2 * time.Minute

func (o Options) pointTimeout() time.Duration {
	if o.PointTimeout > 0 {
		return o.PointTimeout
	}
	return defaultPointTimeout
}

// testPointHook, when non-nil, runs at the start of every guarded point
// body. Tests install it to inject panics and wedges into chosen points.
var testPointHook func(exp, variant string, cores int)

// runGuarded executes f on a child goroutine with a recover guard and a
// wall-clock watchdog. A panic becomes an error; a watchdog expiry
// abandons the child (it may be wedged forever inside the engine) and
// returns pointTimeoutError. The abandoned flag handed to the child makes
// a later unwedge harmless: the child sees it and keeps its result out of
// the shared cache (its point was already reported failed).
func (o Options) runGuarded(exp, variant string, cores int, f func(o Options) Point) (Point, error) {
	co := o
	co.abandoned = new(atomic.Bool)
	type outcome struct {
		p   Point
		err error
	}
	ch := make(chan outcome, 1)
	go func() { //mosvet:allow detlint the watchdog's point body must run off the caller's goroutine so a wedged simulation can be abandoned
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		if testPointHook != nil {
			testPointHook(exp, variant, cores)
		}
		ch <- outcome{p: f(co)}
	}()
	timer := time.NewTimer(o.pointTimeout()) //mosvet:allow detlint the watchdog races real time against a wedged simulation by design; timeouts only abandon points, never shape results
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.p, out.err
	case <-timer.C:
		co.abandoned.Store(true)
		return Point{}, pointTimeoutError{o.pointTimeout()}
	}
}

// safeCachedPoint returns the measurement for (variant, cores), served
// from o.Cache when possible and computed by f otherwise, with crash
// isolation; fanOut calls it for every point of every cached sweep. a is
// the address the sweep builds once (see sweepAddr). A cache hit returns on
// the calling sweep worker without allocating: the key is built in a
// stack buffer and looked up as bytes, and only a miss (or a shard check
// with Shards > 1) turns it into a string.
//
// A miss runs the point body once under runGuarded, which stores the
// result unless the watchdog abandoned the point. A panic or a watchdog
// timeout yields an error instead of a Point, so one crashing point costs
// exactly that point and the rest of the sweep completes. The body runs
// on the worker's engine slot *slot (unless o.fresh), made here at the
// worker's first miss. After a result or a panic the slot serves the
// worker's next point, and Reset stops whatever coroutines a panic left;
// after a timeout the wedged body keeps the slot and *slot is cleared.
func (o Options) safeCachedPoint(a sweepAddr, slot **engineSlot, variant string, cores int, f func(cores int, o Options) Point) (Point, error) {
	var buf [keyBufLen]byte
	key := a.appendKey(buf[:0], variant, cores)
	if o.Shards > 1 && !o.shardOwns(a.sec, string(key)) {
		return Point{}, errShardSkipped
	}
	if p, ok := o.lookupPoint(a, key); ok {
		return p, nil
	}
	skey := string(key)
	if !o.fresh {
		if *slot == nil {
			*slot = new(engineSlot)
		}
		o.slot = *slot
	}
	p, err := o.runGuarded(a.exp, variant, cores, func(co Options) Point {
		p := f(cores, co)
		co.storePoint(a, skey, p)
		return p
	})
	if o.slot != nil {
		if _, wedged := err.(pointTimeoutError); wedged {
			// The wedged body keeps the slot. Its engine is never
			// closed, since Close could hang on it.
			*slot = nil
		} else {
			o.slot.endPoint(err == nil)
		}
	}
	return p, err
}
