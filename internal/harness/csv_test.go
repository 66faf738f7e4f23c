package harness

import (
	"fmt"
	"math"
	"strconv"
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

// utilCases are the float64 values appendUtil must render exactly as
// strconv does: exact ties on both sides of even, zeros, subnormals, the
// neighborhood of 2^-11 (below it every value rounds to zero), 2^53, the
// 2^64 edge of the integer path, and the strconv fallbacks.
var utilCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2.5, 48,
	0.0625, 0.1875, 0.3125, 0.4375, 2.0625, 1.5625, -0.0625, -0.1875,
	0.0005, 0.0015, 0.9995, 0.9999999, 0.1 + 0.2, -0.0004, 123456.789,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
	0x1p-11, math.Nextafter(0x1p-11, 0), math.Nextafter(0x1p-11, 1), -0x1p-11,
	0x1p-10, math.Nextafter(0x1p-10, 0), 0x1p-12 * 3,
	0x1p53, 0x1p53 + 2, 0x1p53 - 1, 0x1p52 + 0.5,
	0x1p63, 0x1p64 - 0x1p11, 0x1p64, -0x1p64, math.Nextafter(0x1p64, 0), 1e19, 1e21,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

func TestAppendUtilMatchesStrconv(t *testing.T) {
	for _, v := range utilCases {
		want := strconv.AppendFloat([]byte("x,"), v, 'f', 3, 64)
		if got := appendUtil([]byte("x,"), v); string(got) != string(want) {
			t.Errorf("appendUtil(%b = %v) = %q, want %q", v, v, got, want)
		}
	}
	// The tie rule, spelled out: exact halves round to the even digit.
	for v, want := range map[float64]string{
		0.0625: "0.062", 0.1875: "0.188", -0.0625: "-0.062",
		math.Copysign(0, -1): "-0.000", -0x1p-11: "-0.000",
	} {
		if got := string(appendUtil(nil, v)); got != want {
			t.Errorf("appendUtil(%v) = %q, want %q", v, got, want)
		}
	}
}

// FuzzAppendUtil compares appendUtil with strconv over arbitrary float64
// bit patterns. Most random patterns have exponents far outside the
// integer-arithmetic range, so each input is also checked with its
// exponent folded into that range, 2^-64 ≤ |v| < 2^12.
func FuzzAppendUtil(f *testing.F) {
	for _, v := range utilCases {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		folded := bits&^(0x7ff<<52) | (1023-64+(bits>>52&0x7ff)%76)<<52
		for _, b := range [...]uint64{bits, folded} {
			v := math.Float64frombits(b)
			want := strconv.AppendFloat(nil, v, 'f', 3, 64)
			if got := appendUtil(nil, v); string(got) != string(want) {
				t.Errorf("appendUtil(%#016x = %v) = %q, want %q", b, v, got, want)
			}
		}
	})
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
