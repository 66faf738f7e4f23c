package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtCSV is the fmt-based renderer CSV replaced, kept as the reference
// the strconv renderer must match byte for byte.
func fmtCSV(s *Series) string {
	joinUtil := func(util []float64) string {
		var parts []string
		for _, u := range util {
			parts = append(parts, fmt.Sprintf("%.3f", u))
		}
		return strings.Join(parts, ";")
	}
	var b strings.Builder
	b.WriteString("experiment,variant,cores,per_core,user_us,sys_us,retries,dups,offered_per_core,p50_us,p99_us,p999_us,dram_util,link_util\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%s,%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%s,%s\n",
			s.ID, p.Variant, p.Cores, p.PerCore, p.UserMicros, p.SysMicros, p.Retries,
			p.Dups, p.OfferedPerCore, p.P50Micros, p.P99Micros, p.P999Micros,
			joinUtil(p.DRAMUtil), joinUtil(p.LinkUtil))
	}
	return b.String()
}

func TestCSVMatchesFmtReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	hand := &Series{ID: "hand", Points: []Point{
		{Cores: 0, Variant: "zeros"},
		{Cores: -3, Variant: "signs", PerCore: negZero, UserMicros: -1.5, SysMicros: -1e21,
			Retries: -1e-7, Dups: -48.0},
		{Cores: 48, Variant: "magnitudes", PerCore: 1e21, UserMicros: 1e-7, SysMicros: 48.0,
			Retries: 0.1 + 0.2, Dups: 123456789.125, OfferedPerCore: 1e20,
			P50Micros: 1e-5, P99Micros: 1e-4, P999Micros: 5e-324},
		{Cores: 1, Variant: "specials", PerCore: math.NaN(), UserMicros: math.Inf(1),
			SysMicros: math.Inf(-1), Retries: math.MaxFloat64, Dups: -math.MaxFloat64},
		{Cores: 2, Variant: "util", DRAMUtil: []float64{0.0005, 0.9995, 1.0},
			LinkUtil: []float64{0, negZero, -0.0005, 0.0015, 0.1 + 0.2, 2.5}},
		{Cores: 3, Variant: "empty util", DRAMUtil: []float64{}, LinkUtil: nil},
		{Cores: 4, Variant: "one util", DRAMUtil: nil, LinkUtil: []float64{math.NaN()}},
	}}
	series := []*Series{hand, {ID: "no-points"}}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		s := ByID(id).Run(Options{Quick: true, Seed: 1})
		if len(s.Points) == 0 {
			t.Fatalf("%s produced no points", id)
		}
		series = append(series, s)
	}
	for _, s := range series {
		if got, want := CSV(s), fmtCSV(s); got != want {
			t.Errorf("%s: CSV differs from the fmt reference\ngot:\n%s\nwant:\n%s", s.ID, got, want)
		}
	}
}

// BenchmarkCSV renders the quick fig9 series, whose points carry
// per-chip and per-link utilization vectors.
func BenchmarkCSV(b *testing.B) {
	s := ByID("fig9").Run(Options{Quick: true, Seed: 1})
	b.ReportAllocs()
	for b.Loop() {
		CSV(s)
	}
}
