package load

import (
	"math"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Cohorts is the number of arrival cohorts per server core. Each cohort
// aggregates its share of the spec's simulated users into one think-time
// process, so offered load scales to millions of users with a constant
// number of simulation events: the heap is over cohorts, not users. For
// Poisson arrivals the superposition is exact (merging independent
// memoryless users is again Poisson); for Pareto each cohort contributes
// heavy-tailed bursts.
const Cohorts = 32

// maxGapFactor truncates a Pareto think-time draw at this multiple of the
// cohort's mean gap: the untruncated tail can park a cohort beyond the
// run's horizon, silently shrinking the offered rate. Truncation at 64x
// keeps the mean within ~2% of nominal for alpha >= 1.1.
const maxGapFactor = 64

// Default request budgets for open-loop runs. They live here (not in
// apps) so the "load" fingerprint domain covers them: retuning a budget
// changes every open-loop figure and must invalidate its cached points.
const (
	// DefaultRequestsPerCore is the measured-phase offered budget. It
	// must be large enough that sustained overload actually accumulates
	// backlog past the client's first retransmission deadline (~70
	// service times for memcached) — a short burst that ends before the
	// retry storm ignites would make every admission policy look equally
	// good.
	DefaultRequestsPerCore = 1600
	// DefaultCalibRequestsPerCore is the closed-loop calibration budget
	// used to locate each app's saturation service rate before offered
	// load is expressed as a percentage of it.
	DefaultCalibRequestsPerCore = 100
)

// retransCum[i] is the cumulative client timeout after which the i-th
// retransmission fires, derived from fault.Backoff so the open-loop
// client and the NIC-loss transport share one retry policy. The last
// entry is the give-up deadline: a response slower than it finds no one
// waiting (the request is counted late, not completed).
var retransCum = func() [fault.RetryMaxAttempts - 1]int64 {
	var cum [fault.RetryMaxAttempts - 1]int64
	var c int64
	for i := range cum {
		c += fault.Backoff(i)
		cum[i] = c
	}
	return cum
}()

// Config parameterizes one open-loop run.
type Config struct {
	Arrival *ArrivalSpec // nil = poisson with default users
	Link    *LinkSpec    // nil = ideal link
	Shed    *ShedSpec    // nil = unbounded FIFO

	// MeanGapCycles is the mean inter-arrival gap per core: offered load
	// is one request per MeanGapCycles cycles on each core.
	MeanGapCycles int64
	// ServiceCycles is the calibrated per-request service time, used to
	// convert a delay-bounded ShedSpec into a queue length.
	ServiceCycles int64
	// Requests is the per-core offered budget.
	Requests int
	// RequestBytes/ResponseBytes size the link serialization delay.
	RequestBytes, ResponseBytes int64
	// Start is the virtual time arrivals begin (normally e.Now(), so a
	// calibration phase on the same engine precedes the measured phase).
	Start int64
}

// Stats is the outcome of an open-loop run. Offered = Completed + Shed +
// Late: every generated request is accounted exactly once. Retries
// counts client retransmissions (timeout-driven duplicates the server
// served again, plus loss-driven resends on the link).
type Stats struct {
	Offered   int64
	Completed int64 // goodput: answered within the client's patience
	Shed      int64 // refused at the bounded accept queue
	Late      int64 // served, but after the client gave up
	Retries   int64
	Sojourns  *Hist // client-perceived latency of completed requests

	hists []*Hist // per-core recorders, merged by Finish
}

// Finish folds the per-core sojourn recorders into Sojourns in core
// order. Call it after the engine run completes; it is idempotent.
func (st *Stats) Finish() {
	for _, h := range st.hists {
		st.Sojourns.Merge(h)
	}
	st.hists = nil
}

// queueItem is one in-flight request on a core's accept queue.
type queueItem struct {
	sendAt    int64 // client transmission time (sojourn baseline)
	deliverAt int64 // arrival at the server after link delays
}

// coreQueue is the accept queue shared by one core's generator and
// worker procs. The engine dispatches procs one at a time in virtual-time
// order, so no locking is needed and every interleaving is deterministic.
type coreQueue struct {
	items    []queueItem
	head     int
	sleeping bool
	genDone  bool
	worker   *sim.Proc
}

func (q *coreQueue) pending() int { return len(q.items) - q.head }

func (q *coreQueue) pop() queueItem {
	it := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

// cohorts generates the per-core arrival sequence: the next arrival is
// the earliest pending cohort, which then redraws its own think-time gap.
// With Cohorts == 32 a linear min-scan beats a heap and keeps the
// iteration order (and therefore the PRNG draw order) obvious.
type cohorts struct {
	e      *sim.Engine
	at     []int64 // each cohort's next arrival, relative to Start
	mean   float64 // per-cohort mean gap (Cohorts x the aggregate gap)
	pareto bool
	alpha  float64
}

func newCohorts(e *sim.Engine, a *ArrivalSpec, meanGap int64) *cohorts {
	c := &cohorts{
		e:    e,
		at:   make([]int64, Cohorts),
		mean: float64(meanGap) * Cohorts,
	}
	if a != nil && a.Process == "pareto" {
		c.pareto, c.alpha = true, a.Alpha
	}
	for i := range c.at {
		c.at[i] = c.gap()
	}
	return c
}

// gap draws one cohort think-time gap from the engine PRNG.
func (c *cohorts) gap() int64 {
	u := c.e.Rand.Float64()
	var g float64
	if c.pareto {
		// Bounded Pareto with the cohort's mean: xm*alpha/(alpha-1) == mean.
		xm := c.mean * (c.alpha - 1) / c.alpha
		g = xm / math.Pow(1-u, 1/c.alpha)
		if max := c.mean * maxGapFactor; g > max {
			g = max
		}
	} else {
		g = -math.Log(1-u) * c.mean // exponential: aggregate is Poisson
	}
	if g < 1 {
		g = 1
	}
	return int64(g)
}

// next pops the earliest cohort arrival and schedules that cohort's
// following one.
func (c *cohorts) next() int64 {
	min := 0
	for i := 1; i < len(c.at); i++ {
		if c.at[i] < c.at[min] {
			min = i
		}
	}
	t := c.at[min]
	c.at[min] = t + c.gap()
	return t
}

// requestDelay returns the one-way client->server link delay for one
// request, charging loss-driven retransmissions to stats. Draws happen
// only when the corresponding spec field is active, preserving the
// conditional-draw discipline: an ideal link perturbs no PRNG stream.
func requestDelay(e *sim.Engine, l *LinkSpec, bytes int64, st *Stats) int64 {
	if l == nil {
		return 0
	}
	d := l.RTTCycles / 2
	if l.JitterCycles > 0 {
		// Uniform in ±Jitter/2 per direction; Jitter <= RTT keeps d >= 0.
		d += int64(e.Rand.Float64()*float64(l.JitterCycles)) - l.JitterCycles/2
	}
	if l.BitsPerSec > 0 {
		d += int64(float64(bytes*8) * float64(topo.ClockHz) / l.BitsPerSec)
	}
	if l.Loss > 0 {
		for attempt := 0; attempt < fault.RetryMaxAttempts-1; attempt++ {
			if e.Rand.Float64() >= l.Loss {
				break
			}
			// Lost in flight: the client notices at its timeout and
			// resends. The final attempt always delivers (fault package
			// contract), so the loop bound also bounds the delay.
			d += fault.Backoff(attempt)
			st.Retries++
		}
	}
	return d
}

// respDelay is the server->client path: same shaping, no loss retries
// (a lost response surfaces as a client timeout, which the give-up
// accounting already covers).
func respDelay(e *sim.Engine, l *LinkSpec, bytes int64) int64 {
	if l == nil {
		return 0
	}
	d := l.RTTCycles / 2
	if l.JitterCycles > 0 {
		d += int64(e.Rand.Float64()*float64(l.JitterCycles)) - l.JitterCycles/2
	}
	if l.BitsPerSec > 0 {
		d += int64(float64(bytes*8) * float64(topo.ClockHz) / l.BitsPerSec)
	}
	return d
}

// Run installs open-loop arrival procs on each listed core; the caller
// then runs the engine and calls Stats.Finish once the offered budget is
// exhausted and every queued request is resolved. Each core gets two
// procs: a generator that idles until each arrival, applies link shaping
// and the admission policy, and appends to the core's accept queue; and a
// worker that drains the queue. The worker calls newWorker once to set up
// its core's server state (sockets, files, connections) and gets back
// serve, which serves one request end to end on the worker proc. A
// request refused at a full queue costs nothing (a datagram dropped at
// the card).
//
// A client retransmission of a request that was already queued is served
// in full as well: a stateless UDP server like memcached cannot tell a
// duplicate from a fresh request. Retransmissions share the core with
// real service, so overload is not free — the feedback loop that turns
// sustained overload into congestion collapse.
func Run(e *sim.Engine, cores []int, cfg Config, newWorker func(*sim.Proc) func(*sim.Proc)) *Stats {
	st := &Stats{Sojourns: &Hist{}}
	hists := make([]*Hist, len(cores))
	limit := cfg.Shed.limitFor(cfg.ServiceCycles)
	giveUp := retransCum[len(retransCum)-1]

	for ci, core := range cores {
		q := &coreQueue{}
		if limit > 0 {
			// A bounded queue holds at most limit pending items, so this
			// one allocation usually covers the whole run.
			q.items = make([]queueItem, 0, limit)
		}
		h := &Hist{}
		hists[ci] = h

		// The worker is spawned first: at cfg.Start it runs before the
		// generator (same time, lower sequence number), finds the queue
		// empty, and parks — so the first arrival always finds it ready.
		q.worker = e.Spawn(core, "ol-worker", cfg.Start, func(p *sim.Proc) {
			serve := newWorker(p)
			for {
				if q.pending() == 0 {
					if q.genDone {
						return
					}
					q.sleeping = true
					p.Block()
					continue
				}
				it := q.pop()
				p.IdleUntil(it.deliverAt)
				// The client's patience clock runs on server turnaround:
				// time queued past each backoff deadline produced one
				// retransmission the server serves in full.
				waited := p.Now() - it.deliverAt
				for i := 0; i < len(retransCum)-1; i++ {
					if waited <= retransCum[i] {
						break
					}
					serve(p)
					st.Retries++
				}
				serve(p)
				if waited > giveUp {
					st.Late++ // served into the void: client already gone
					continue
				}
				st.Completed++
				h.Record(p.Now() + respDelay(e, cfg.Link, cfg.ResponseBytes) - it.sendAt)
			}
		})

		e.Spawn(core, "ol-gen", cfg.Start, func(p *sim.Proc) {
			arr := newCohorts(e, cfg.Arrival, cfg.MeanGapCycles)
			for i := 0; i < cfg.Requests; i++ {
				p.IdleUntil(cfg.Start + arr.next())
				st.Offered++
				d := requestDelay(e, cfg.Link, cfg.RequestBytes, st)
				if limit > 0 && q.pending() >= limit {
					st.Shed++
					continue
				}
				q.items = append(q.items, queueItem{sendAt: p.Now(), deliverAt: p.Now() + d})
				if q.sleeping {
					q.sleeping = false
					q.worker.Wake(p.Now() + d)
				}
			}
			q.genDone = true
			if q.sleeping {
				q.sleeping = false
				q.worker.Wake(p.Now())
			}
		})
	}

	st.hists = hists
	return st
}
