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
// testPointEndHook, when non-nil, runs last on a guarded body's
// goroutine, after an abandoned body has closed its slot's engine.
var testPointHook, testPointEndHook func(exp, variant string, cores int)

// runGuarded executes f on a child goroutine with a recover guard and a
// wall-clock watchdog. A panic becomes an error; a watchdog expiry
// abandons the child (it may be wedged forever inside the engine) and
// returns pointTimeoutError. The abandoned flag handed to the child makes
// a later unwedge harmless: the child sees it and keeps its result out of
// the shared cache (its point was already reported failed).
//
// The child and the watchdog each swap settled when they are done, and
// only the first to swap it acts: a child that finishes first has its
// outcome returned even if the timer has fired meanwhile, and a child
// that finishes after the watchdog gave up closes its slot's engine,
// which nothing else will do once the sweep worker has left it.
func (o Options) runGuarded(exp, variant string, cores int, f func(o Options) Point) (Point, error) {
	co := o
	co.abandoned = new(atomic.Bool)
	var settled atomic.Bool
	type outcome struct {
		p   Point
		err error
	}
	ch := make(chan outcome, 1)
	// Read the hook here, not in the child: an abandoned child may
	// outlive the test that installed it.
	end := testPointEndHook
	go func() { //mosvet:allow detlint the watchdog's point body must run off the caller's goroutine so a wedged simulation can be abandoned
		var out outcome
		defer func() {
			if r := recover(); r != nil {
				out.err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
			if settled.Swap(true) {
				co.slot.close()
			}
			ch <- out
			if end != nil {
				end(exp, variant, cores)
			}
		}()
		if testPointHook != nil {
			testPointHook(exp, variant, cores)
		}
		out.p = f(co)
	}()
	timer := time.NewTimer(o.pointTimeout()) //mosvet:allow detlint the watchdog races real time against a wedged simulation by design; timeouts only abandon points, never shape results
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.p, out.err
	case <-timer.C:
		if settled.Swap(true) {
			out := <-ch // the child finished first; its send is on the way
			return out.p, out.err
		}
		co.abandoned.Store(true)
		return Point{}, pointTimeoutError{o.pointTimeout()}
	}
}

// safeCachedPoint returns the measurement for (variant, cores), served
// from o.Cache when possible and computed by f otherwise, with crash
// isolation; fanOut calls it for every point of every cached sweep. The
// key names the point: a computed point takes its Variant and Cores from
// it, so point bodies leave both unset. a is the address the sweep builds
// once (see sweepAddr). A cache hit returns on the calling sweep worker
// without allocating: the key is built in a stack buffer and looked up as
// bytes, and only a miss (or a shard check with Shards > 1) turns it into
// a string.
//
// A miss runs the point body once under runGuarded, which stores the
// result unless the watchdog abandoned the point. A panic or a watchdog
// timeout yields an error instead of a Point, so one crashing point costs
// exactly that point and the rest of the sweep completes. The body runs
// on the worker's engine slot *slot (unless o.fresh), made here at the
// worker's first miss. After a result or a panic the slot serves the
// worker's next point, and Reset stops whatever coroutines a panic left;
// after a timeout the wedged body keeps the slot, closes its engine if it
// ever returns (runGuarded), and *slot is cleared.
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
		p.Variant, p.Cores = variant, cores
		co.storePoint(a, skey, p)
		return p
	})
	if o.slot != nil {
		if _, wedged := err.(pointTimeoutError); wedged {
			// The wedged body keeps the slot and closes its engine
			// if it returns; closing it here could hang.
			*slot = nil
		} else {
			o.slot.endPoint(err == nil)
		}
	}
	return p, err
}
