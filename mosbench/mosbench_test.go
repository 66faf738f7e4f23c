package mosbench

import (
	"reflect"
	"strings"
	"testing"
)

func TestExperimentsListed(t *testing.T) {
	exps := Experiments()
	if len(exps) < 16 {
		t.Fatalf("Experiments() returned %d entries, want >= 16", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
		if e.Title == "" || e.Paper == "" {
			t.Errorf("experiment %q has empty metadata", e.ID)
		}
	}
	for _, want := range []string{"fig3", "fig4", "fig11", "tbl-hw"} {
		if !ids[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("Run(nope) did not error")
	}
}

func TestRunValidatesShards(t *testing.T) {
	for _, o := range []Options{
		{Shards: 2, ShardIndex: 5},
		{Shards: 2, ShardIndex: -1},
		{Shards: -3},
		{ShardIndex: 2}, // index without Shards is out of range for 1 shard
	} {
		if _, err := Run("fig5", o); err == nil {
			t.Errorf("Run with Shards=%d ShardIndex=%d did not error", o.Shards, o.ShardIndex)
		}
	}
	// A valid worker combination runs and yields a partial grid.
	s, err := Run("fig5", Options{Quick: true, Shards: 2, ShardIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run("fig5", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) == 0 || len(s.Points) >= len(full.Points) {
		t.Errorf("shard 1/2 computed %d of %d points; want a proper nonempty subset",
			len(s.Points), len(full.Points))
	}
}

// TestRunValidatesCores: a core count outside the selected machine's
// [1, MaxCores] is rejected up front with cmd/mosbench's -cores message,
// instead of failing every point of the sweep.
func TestRunValidatesCores(t *testing.T) {
	for _, tc := range []struct {
		machine string
		cores   []int
		want    string
	}{
		{"", []int{0}, "core count 0 out of range [1,48]"},
		{"", []int{1, -1}, "core count -1 out of range [1,48]"},
		{"", []int{8, 49}, "core count 49 out of range [1,48]"},
		{"ring16", []int{97}, "core count 97 out of range [1,96]"},
	} {
		_, err := Run("fig5", Options{Quick: true, Machine: tc.machine, Cores: tc.cores})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(machine %q, cores %v) error = %v, want %q", tc.machine, tc.cores, err, tc.want)
		}
	}
	// The bound is the selected machine's: 49 cores fit ring16.
	s, err := Run("fig5", Options{Quick: true, Machine: "ring16", Cores: []int{49}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failed) != 0 || len(s.Points) == 0 {
		t.Errorf("ring16 at 49 cores: %d points, failures %+v", len(s.Points), s.Failed)
	}
}

// TestRunValidatesPlacementOnMachine: Run checks a home:N placement
// against the selected machine's chips, so home:12 fits ring16's sixteen
// chips but not the default host's eight; CheckPlacementFor agrees.
func TestRunValidatesPlacementOnMachine(t *testing.T) {
	if _, err := Run("fig1", Options{Machine: "ring16", Placement: "home:12"}); err != nil {
		t.Errorf("Run(fig1, ring16, home:12) = %v, want no error", err)
	}
	if _, err := Run("fig1", Options{Placement: "home:12"}); err == nil || !strings.Contains(err.Error(), "0..7") {
		t.Errorf("Run(fig1, default, home:12) error = %v, want the 0..7 chip range", err)
	}
	if err := CheckPlacementFor("home:12", "ring16"); err != nil {
		t.Errorf("CheckPlacementFor(home:12, ring16) = %v, want nil", err)
	}
	if err := CheckPlacementFor("home:16", "ring16"); err == nil || !strings.Contains(err.Error(), "0..15") {
		t.Errorf("CheckPlacementFor(home:16, ring16) = %v, want the 0..15 chip range", err)
	}
	if err := CheckPlacementFor("local", "nosuch"); err == nil {
		t.Error("CheckPlacementFor accepted an unknown machine")
	}
}

func TestRunQuickFig5(t *testing.T) {
	s, err := Run("fig5", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "fig5" || s.Unit == "" {
		t.Errorf("series metadata: %+v", s)
	}
	if _, ok := s.Get("PK", 48); !ok {
		t.Errorf("missing PK/48 point in %+v", s.Points)
	}
	if !strings.Contains(Table(s), "cores") {
		t.Error("Table output missing header")
	}
	if !strings.Contains(CSV(s), "fig5,") {
		t.Error("CSV output missing rows")
	}
}

func TestCacheServesRepeatedRuns(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Cache: c}
	first, err := Run("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 || c.Misses() == 0 {
		t.Fatalf("cold run: %d hits, %d misses; want all misses", c.Hits(), c.Misses())
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	second, err := Run("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Hits(), int64(len(first.Points)); got != want {
		t.Errorf("warm run hits = %d, want %d (every point)", got, want)
	}
	if !reflect.DeepEqual(first.Points, second.Points) {
		t.Errorf("cached points differ:\nfirst:  %+v\nsecond: %+v", first.Points, second.Points)
	}
}

func TestCacheStatsPerExperiment(t *testing.T) {
	c, err := OpenCacheLogged(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Cache: c}
	if _, err := Run("fig5", o); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("fig5", o); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	e, ok := st.Experiments["fig5"]
	if !ok {
		t.Fatalf("Stats() missing fig5 section: %+v", st)
	}
	if e.Hits == 0 || e.Misses == 0 || e.Hits != e.Misses || e.Points != int(e.Misses) {
		t.Errorf("fig5 stats %+v: want equal nonzero hits/misses and matching point count", e)
	}
	if st.Hits != e.Hits || st.Misses != e.Misses || st.Invalidated != 0 {
		t.Errorf("totals %d/%d/%d disagree with fig5's %+v", st.Hits, st.Misses, st.Invalidated, e)
	}
}

func TestCustomCoreSweep(t *testing.T) {
	s, err := Run("fig9", Options{Cores: []int{1, 48}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Cores != 1 && p.Cores != 48 {
			t.Errorf("unexpected core count %d in custom sweep", p.Cores)
		}
	}
}
