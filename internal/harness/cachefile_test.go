package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// primed holds the cache a cold quick run of fig4–fig11 on the default
// grid at seed 1 leaves behind (198 points, the cache mosperf's
// cache-replay workload primes), built once per test binary.
var primed struct {
	once     sync.Once
	data     []byte
	sections map[string]*cacheSection
}

// primedCache returns the primed cache's points.json bytes and the
// in-memory sections they were written from. Callers must not modify
// either.
func primedCache(tb testing.TB) ([]byte, map[string]*cacheSection) {
	tb.Helper()
	primed.once.Do(func() {
		dir := tb.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
			ByID(id).Run(Options{Quick: true, Seed: 1, Cores: DefaultCores, Cache: c})
		}
		if err := c.Save(); err != nil {
			tb.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, cacheFileName))
		if err != nil {
			tb.Fatal(err)
		}
		primed.data, primed.sections = data, c.sections
	})
	if primed.data == nil {
		tb.Fatal("priming the cache failed in an earlier test")
	}
	return primed.data, primed.sections
}

// cacheDirWith returns a fresh cache directory whose points.json holds data.
func cacheDirWith(tb testing.TB, data []byte) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// openCollecting opens the cache in dir and returns it with every warning
// it logged.
func openCollecting(tb testing.TB, dir string) (*Cache, []string) {
	tb.Helper()
	var warnings []string
	c, err := OpenCacheLogged(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c, warnings
}

func marshalIndent(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// sameValue is reflect.DeepEqual that also tells -0 from 0: equal values
// marshal to equal bytes.
func sameValue(a, b any) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// referenceSections is the reference decoder: what OpenCacheLogged must
// load from data, decoded by encoding/json and put through the same
// schema check and nil fixups. ok is false when the reference starts
// empty with a warning.
func referenceSections(data []byte) (sections map[string]*cacheSection, ok bool) {
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil || f.Schema != cacheSchema {
		return nil, false
	}
	sections = map[string]*cacheSection{}
	for exp, s := range f.Experiments {
		if s == nil {
			continue
		}
		if s.Points == nil {
			s.Points = map[string]Point{}
		}
		sections[exp] = s
	}
	return sections, true
}

// everyFieldPoint returns a Point with every field set to a distinct
// non-zero value, so a field the decoder does not know fails the round
// trip.
func everyFieldPoint(t *testing.T) Point {
	var p Point
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]float64{float64(i), 0.5}))
		default:
			t.Fatalf("Point.%s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
	}
	return p
}

func TestCacheFileDecode(t *testing.T) {
	_, quick := primedCache(t)
	negZero := math.Copysign(0, -1)
	hand := map[string]*cacheSection{
		"fig4": {Fingerprint: fingerprintFor("fig4"), Points: map[string]Point{
			"nil util":   {Cores: 1, Variant: "nil util"},
			"empty util": {Cores: 2, Variant: "empty util", DRAMUtil: []float64{}, LinkUtil: []float64{}},
			"numbers": {Cores: -48, Variant: "numbers", PerCore: negZero, UserMicros: 5e-324,
				SysMicros: 1.7976931348623157e308, Retries: 105090, Dups: -0.5, OfferedPerCore: -1e21,
				P50Micros: 1e-7, P99Micros: 0.1 + 0.2, P999Micros: -math.MaxFloat64,
				DRAMUtil: []float64{negZero, 5e-324, 105090, -1}, LinkUtil: []float64{1.7976931348623157e308}},
		}},
		"nil section":  nil,
		"nil points":   {Fingerprint: "nil points"},
		"empty points": {Points: map[string]Point{}},
		"every field":  {Points: map[string]Point{"every": everyFieldPoint(t)}},
	}
	escapes := map[string]*cacheSection{}
	for _, s := range []string{`say "hi"`, `back\slash`, "Stock & PK", "<b>", "rtt=20ms±5", "line\u2028sep", ""} {
		escapes[s] = &cacheSection{Fingerprint: s, Points: map[string]Point{s + "|1": {Cores: 1, Variant: s}}}
	}
	for name, exps := range map[string]map[string]*cacheSection{
		"quick fig4-fig11": quick, "hand-built": hand, "escapes": escapes, "no experiments": nil,
	} {
		in := &cacheFile{Schema: cacheSchema, Experiments: exps}
		data := marshalIndent(t, in)
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		for form, data := range map[string][]byte{"indented": data, "compact": compact.Bytes()} {
			got, err := decodeCacheFile(data)
			if err != nil {
				t.Errorf("%s, %s: %v", name, form, err)
				continue
			}
			if !sameValue(got, in) {
				t.Errorf("%s, %s: decoded value differs from the value written", name, form)
			}
		}
		if got, err := decodeCacheFile(data); err == nil && !bytes.Equal(marshalIndent(t, got), data) {
			t.Errorf("%s: re-encoding the decoded file does not reproduce its bytes", name)
		}
	}

	// Each rejected file must leave the cache empty with the usual
	// one-line warning.
	doc := func(section string) string {
		return `{"schema":"` + cacheSchema + `","experiments":{"fig4":` + section + `}}`
	}
	pt := func(members string) string {
		return doc(`{"fingerprint":"f","points":{"k":{` + members + `}}}`)
	}
	valid := string(marshalIndent(t, &cacheFile{Schema: cacheSchema, Experiments: hand}))
	for _, ok := range []string{pt(`"PerCore":1.5e-3`), doc(`null`), valid, " \n" + valid + "\r\n\t "} {
		if _, warnings := openCollecting(t, cacheDirWith(t, []byte(ok))); len(warnings) != 0 {
			t.Fatalf("control file rejected (%q): %.80s", warnings, ok)
		}
	}
	for name, bad := range map[string]string{
		"leading zero":          pt(`"PerCore":01`),
		"bare fraction":         pt(`"PerCore":.5`),
		"plus sign":             pt(`"PerCore":+1`),
		"empty fraction":        pt(`"PerCore":1.`),
		"empty exponent":        pt(`"PerCore":1e`),
		"NaN":                   pt(`"PerCore":NaN`),
		"out of range":          pt(`"PerCore":1e309`),
		"fractional int":        pt(`"Cores":1.0`),
		"string for number":     pt(`"Cores":"1"`),
		"null number":           pt(`"PerCore":null`),
		"null point":            doc(`{"points":{"k":null}}`),
		"control character":     doc(`{"points":{"a` + "\t" + `b":{}}}`),
		"invalid UTF-8":         doc(`{"points":{"a` + "\xff" + `b":{}}}`),
		"bad escape":            doc(`{"points":{"a\x":{}}}`),
		"truncated":             valid[:len(valid)/2],
		"trailing garbage":      valid + "x",
		"second document":       valid + "{}",
		"repeated points":       doc(`{"fingerprint":"f","points":{},"points":{}}`),
		"repeated point key":    doc(`{"points":{"k":{},"k":{}}}`),
		"repeated point member": pt(`"Cores":1,"Cores":2`),
		"unknown member":        pt(`"Extra":1`),
		"case-folded member":    doc(`{"Fingerprint":"f"}`),
		"null file":             `null`,
		"empty file":            ``,
	} {
		c, warnings := openCollecting(t, cacheDirWith(t, []byte(bad)))
		if c.Len() != 0 || len(warnings) != 1 || !strings.Contains(warnings[0], "unparsable") {
			t.Errorf("%s: %d points, warnings %q; want 0 points and one unparsable warning", name, c.Len(), warnings)
		}
	}
}

// FuzzOpenCache feeds arbitrary points.json bytes to OpenCacheLogged. It
// must never panic, and must load exactly what the encoding/json
// reference loads, or start empty with one warning. A file the
// reference accepts must also survive MarshalIndent → decode unchanged.
func FuzzOpenCache(f *testing.F) {
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	ByID("fig5").Run(Options{Quick: true, Seed: 1, Cores: []int{1, 8}, Cache: c})
	indented := marshalIndent(f, &cacheFile{Schema: cacheSchema, Experiments: c.sections})
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		f.Fatal(err)
	}
	amp := "Stock & PK|1|seed=1|quick=true|placement=local|fault=none|arrival=none|link=none|shed=fifo"
	f.Add(indented)
	f.Add(compact.Bytes())
	f.Add([]byte(`{"experiments":null}`))
	f.Add(marshalIndent(f, &cacheFile{Schema: cacheSchema, Experiments: map[string]*cacheSection{
		"fig5": {Fingerprint: fingerprintFor("fig5"), Points: map[string]Point{amp: {Cores: 1, Variant: "Stock & PK"}}},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, warnings := openCollecting(t, cacheDirWith(t, data))
		want, ok := referenceSections(data)
		rejected := len(warnings) == 1 && len(c.sections) == 0
		if !rejected && !(ok && len(warnings) == 0 && sameValue(c.sections, want)) {
			t.Fatalf("loaded %d sections with warnings %q; the reference loads %v (ok=%v)", len(c.sections), warnings, want, ok)
		}

		var ref cacheFile
		if json.Unmarshal(data, &ref) != nil {
			return
		}
		wantFile := &ref
		if ref.Schema != cacheSchema {
			wantFile = &cacheFile{Schema: ref.Schema}
		}
		if got, err := decodeCacheFile(marshalIndent(t, &ref)); err != nil || !sameValue(got, wantFile) {
			t.Fatalf("MarshalIndent of the reference value does not decode back to it (err %v)", err)
		}
	})
}

// openAllocSlack bounds OpenCache's allocations that do not grow with the
// stored points: the directory and glob calls, the file buffer, the Cache
// and its maps, and the decoder's scratch and map growth.
const openAllocSlack = 100

// TestOpenCacheAllocs bounds OpenCache's allocations per stored point.
// The decoder allocates each point's key, variant, util slices and map
// slot; encoding/json's generic decoder needed about twelve.
func TestOpenCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	data, sections := primedCache(t)
	dir := cacheDirWith(t, data)
	points := 0
	for _, s := range sections {
		points += len(s.Points)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := OpenCache(dir); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(6*points + openAllocSlack); allocs > limit {
		t.Errorf("OpenCache of %d points made %.0f allocations, want at most %.0f", points, allocs, limit)
	}
}

// BenchmarkOpenCache opens the primed fig4–fig11 quick cache: one warm
// replay pass's read side.
func BenchmarkOpenCache(b *testing.B) {
	data, _ := primedCache(b)
	dir := cacheDirWith(b, data)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := OpenCache(dir); err != nil {
			b.Fatal(err)
		}
	}
}
