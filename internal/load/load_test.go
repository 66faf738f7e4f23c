package load

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// runLoad drives one core with a fixed-service-time server and returns
// the stats plus how many times the server served a request, counting
// each retransmission it served again.
func runLoad(t *testing.T, seed uint64, cfg Config, service int64) (*Stats, int) {
	t.Helper()
	e := sim.NewEngine(topo.New(1), seed)
	serves := 0
	st := Run(e, []int{0}, cfg, func(*sim.Proc) func(*sim.Proc) {
		return func(p *sim.Proc) { serves++; p.Advance(service) }
	})
	e.Run()
	st.Finish()
	return st, serves
}

// TestRunAccountsEveryRequest: offered = completed + shed + late, under
// load both gentle and brutal.
func TestRunAccountsEveryRequest(t *testing.T) {
	for _, gap := range []int64{500, 5000, 50000} {
		st, _ := runLoad(t, 1, Config{MeanGapCycles: gap, Requests: 400}, 5000)
		if st.Offered != 400 {
			t.Fatalf("gap %d: offered %d, want 400", gap, st.Offered)
		}
		if st.Completed+st.Shed+st.Late != st.Offered {
			t.Errorf("gap %d: %d completed + %d shed + %d late != %d offered",
				gap, st.Completed, st.Shed, st.Late, st.Offered)
		}
		if int64(st.Sojourns.Count()) != st.Completed {
			t.Errorf("gap %d: sojourn histogram has %d samples, want %d completions",
				gap, st.Sojourns.Count(), st.Completed)
		}
	}
}

// TestShedBoundsQueue: a count-bounded policy sheds under overload and
// keeps the worst sojourn near limit x service, while the unbounded FIFO
// sheds nothing and lets sojourns balloon.
func TestShedBoundsQueue(t *testing.T) {
	const service = 10_000
	over := Config{MeanGapCycles: service / 2, Requests: 300} // 2x capacity

	fifoCfg := over
	fifo, _ := runLoad(t, 1, fifoCfg, service)
	if fifo.Shed != 0 {
		t.Errorf("unbounded FIFO shed %d requests", fifo.Shed)
	}

	shedCfg := over
	shedCfg.Shed = &ShedSpec{QueueLimit: 4}
	shed, _ := runLoad(t, 1, shedCfg, service)
	if shed.Shed == 0 {
		t.Error("bounded queue shed nothing at 2x offered load")
	}
	// Worst sojourn is bounded by the queue: limit+1 services plus slack
	// for the retransmissions served on the same core.
	if worst := shed.Sojourns.Quantile(1); worst > 8*service {
		t.Errorf("bounded-queue worst sojourn %d exceeds 8 services", worst)
	}
	if worstF := fifo.Sojourns.Quantile(1); worstF < 20*service {
		t.Errorf("unbounded worst sojourn %d suspiciously low for 2x overload", worstF)
	}
}

// TestDelayBoundResolvesAgainstService: the delay-bounded spec converts
// to a queue length using Config.ServiceCycles, so the same spec sheds
// more aggressively when the server is slower.
func TestDelayBoundResolvesAgainstService(t *testing.T) {
	const service = 10_000
	cfg := Config{
		MeanGapCycles: service / 2,
		Requests:      300,
		Shed:          &ShedSpec{DelayCycles: 4 * service},
		ServiceCycles: service,
	}
	st, _ := runLoad(t, 1, cfg, service)
	if st.Shed == 0 {
		t.Fatal("delay-bounded queue shed nothing at 2x offered load")
	}
	if worst := st.Sojourns.Quantile(1); worst > 8*service {
		t.Errorf("delay-bounded worst sojourn %d exceeds 8 services", worst)
	}
}

// TestOverloadTriggersRetransmissions: when FIFO waits cross the client
// backoff deadlines the server serves one retransmission per crossing,
// and waits past the give-up deadline surface as Late, not Completed.
func TestOverloadTriggersRetransmissions(t *testing.T) {
	// Waits grow by service/2 per arrival; with enough requests the last
	// ones wait past every deadline including give-up.
	service := retransCum[0] / 10
	st, serves := runLoad(t, 1, Config{MeanGapCycles: service / 2, Requests: 600}, service)
	if st.Retries == 0 {
		t.Error("sustained overload produced no retransmissions")
	}
	if st.Late == 0 {
		t.Error("waits past the give-up deadline produced no late completions")
	}
	// No link: every retry is a queued retransmission, served in full.
	if want := 600 + int(st.Retries); serves != want {
		t.Errorf("server served %d times, want every offered request plus each retransmission (%d)", serves, want)
	}
}

// TestLinkShapingDelaysAndRetries: rtt shifts every sojourn by at least
// the round trip; loss produces client resends without any server work.
func TestLinkShapingDelaysAndRetries(t *testing.T) {
	const service = 5000
	rtt := int64(1_000_000)
	cfg := Config{
		Link:          &LinkSpec{RTTCycles: rtt},
		MeanGapCycles: 10 * service, // light load: sojourn == rtt + service
		Requests:      50,
	}
	st, _ := runLoad(t, 1, cfg, service)
	if st.Completed != 50 {
		t.Fatalf("completed %d, want 50", st.Completed)
	}
	if min := st.Sojourns.Quantile(0); min < rtt+service {
		t.Errorf("min sojourn %d below rtt+service %d", min, rtt+service)
	}

	lossy := cfg
	lossy.Link = &LinkSpec{RTTCycles: rtt, Loss: 0.3}
	st2, _ := runLoad(t, 1, lossy, service)
	if st2.Retries == 0 {
		t.Error("30% loss produced no retransmissions")
	}
}

// TestRunDeterminism: identical configs and seeds give bit-identical
// stats and sojourn distributions; pareto and poisson arrivals differ.
func TestRunDeterminism(t *testing.T) {
	cfg := Config{
		Arrival:       &ArrivalSpec{Process: "pareto", Users: 1000, Alpha: 1.5},
		Link:          &LinkSpec{RTTCycles: 10_000, JitterCycles: 4_000, Loss: 0.05},
		MeanGapCycles: 4000,
		Requests:      400,
	}
	a, _ := runLoad(t, 7, cfg, 5000)
	b, _ := runLoad(t, 7, cfg, 5000)
	if *a.Sojourns != *b.Sojourns || a.Completed != b.Completed ||
		a.Retries != b.Retries || a.Shed != b.Shed || a.Late != b.Late {
		t.Error("identical runs diverged")
	}

	pois := cfg
	pois.Arrival = &ArrivalSpec{Process: "poisson", Users: 1000}
	c, _ := runLoad(t, 7, pois, 5000)
	if *c.Sojourns == *a.Sojourns {
		t.Error("poisson and pareto arrivals produced identical sojourn histograms")
	}
}

// TestCohortGapMeans: the aggregate arrival rate matches the configured
// mean gap for both processes, within sampling tolerance — the property
// that makes "offered load" trustworthy.
func TestCohortGapMeans(t *testing.T) {
	for _, proc := range []string{"poisson", "pareto"} {
		e := sim.NewEngine(topo.New(1), 3)
		var arr *ArrivalSpec
		if proc == "pareto" {
			arr = &ArrivalSpec{Process: "pareto", Users: 1000, Alpha: 1.5}
		}
		const gap, n = 10_000, 20_000
		c := newCohorts(e, arr, gap)
		var last int64
		for i := 0; i < n; i++ {
			last = c.next()
		}
		mean := float64(last) / n
		if mean < 0.85*gap || mean > 1.15*gap {
			t.Errorf("%s: empirical mean gap %.0f, want within 15%% of %d", proc, mean, gap)
		}
	}
}
