package sim

import (
	"math"
	"testing"

	"repro/internal/topo"
	"repro/internal/xrand"
)

// TestResourceMatchesMD1 checks Resource's queueing against M/D/1: 48
// procs on their own cores, each with a seeded Poisson arrival stream,
// share one Resource with a fixed service time. The mean wait must be
// within 2% of Pollaczek–Khinchine's ρs/(2(1−ρ)).
//
// A proc reaches the Resource through IdleUntil at each scheduled arrival,
// and its wait is measured from that arrival, so the stream stays
// open-loop: a proc whose previous request is still in service enters the
// queue late, but the server is busy all that time and every request
// takes the same service, so the mean wait does not move. Every stream
// runs to the same horizon, so the offered load does not taper as
// streams finish.
//
// The sample sizes are set by the estimator's spread, which grows
// steeply with ρ: over six seeds, 192k requests at ρ = 0.9 scattered
// ±7% around the prediction, while 3.6M stayed within ±0.9%. Each load
// gets enough requests that 2% is about three standard deviations.
func TestResourceMatchesMD1(t *testing.T) {
	const (
		procs = 48
		svc   = 1000 // cycles
	)
	for _, c := range []struct {
		rho     float64
		horizon int64 // cycles; about 192k, 384k and 3.6M requests
	}{{0.3, 640e6}, {0.6, 640e6}, {0.9, 4e9}} {
		e := NewEngine(topo.New(procs), 1)
		r := NewResource("md1")
		meanGap := procs * svc / c.rho // each proc's share of the arrival rate ρ/s
		var waitSum float64
		var n int
		for core := 0; core < procs; core++ {
			rng := xrand.New(uint64(core + 1))
			e.Spawn(core, "client", 0, func(p *Proc) {
				at := 0.0
				for {
					at += -math.Log(1-rng.Float64()) * meanGap
					arrival := int64(at)
					if arrival >= c.horizon {
						return
					}
					p.IdleUntil(arrival)
					r.Use(p, svc)
					waitSum += float64(p.Now() - svc - arrival)
					n++
				}
			})
		}
		e.Run()
		got := waitSum / float64(n)
		want := c.rho * svc / (2 * (1 - c.rho))
		if dev := math.Abs(got-want) / want; dev > 0.02 {
			t.Errorf("ρ=%.1f: mean wait %.1f cycles over %d requests, M/D/1 predicts %.1f (off by %.2f%%, want ≤ 2%%)",
				c.rho, got, n, want, dev*100)
		}
	}
}
