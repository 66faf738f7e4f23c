package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareBenchReportsMissingBaselineMetric is the regression guard for
// the bench gate's blind spot: a metric present in the committed baseline
// but absent from the fresh report must be reported, or a renamed/deleted
// benchmark silently drops out of the >factor regression gate.
func TestCompareBenchReportsMissingBaselineMetric(t *testing.T) {
	base := &BenchReport{Schema: benchReportSchema, Results: []BenchResult{
		{Name: "kept", NsPerOp: 100, Ops: 1},
		{Name: "removed", NsPerOp: 50, Ops: 1},
	}}
	cur := &BenchReport{Schema: benchReportSchema, Results: []BenchResult{
		{Name: "kept", NsPerOp: 120, Ops: 1},
		{Name: "brand_new", NsPerOp: 1, Ops: 1}, // new metrics are not gated
	}}
	regs := CompareBenchReports(base, cur, 2.0)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly the missing-metric line", regs)
	}
	if !strings.Contains(regs[0], "removed") || !strings.Contains(regs[0], "missing") {
		t.Errorf("missing-metric line %q should name the metric and say it is missing", regs[0])
	}

	// The growth gate still fires alongside the missing-metric report.
	cur.Results[0].NsPerOp = 300
	regs = CompareBenchReports(base, cur, 2.0)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want the missing metric plus the 3x growth", regs)
	}

	// A report compared against itself is clean.
	if regs := CompareBenchReports(base, base, 2.0); len(regs) != 0 {
		t.Errorf("self-comparison reports regressions: %v", regs)
	}
}

// TestReadBenchReportRejectsRepeatedNames: CompareBenchReports keys
// metrics by name, so a report listing one name twice would compare the
// two values against each other and flag a regression against itself.
func TestReadBenchReportRejectsRepeatedNames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	data := `{"schema":"` + benchReportSchema + `","results":[` +
		`{"name":"x","ns_per_op":10,"ops":1},{"name":"x","ns_per_op":5,"ops":1}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReport(path); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("ReadBenchReport = %v, want an error naming the repeated metric", err)
	}
}

// FuzzReadBenchReport feeds arbitrary bytes to the bench report decoder:
// it must never panic, and any report it accepts must compare clean
// against itself at factor 1.
func FuzzReadBenchReport(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweep.json")); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"` + benchReportSchema + `","results":[{"name":"x","ns_per_op":10,"ops":1},{"name":"x","ns_per_op":5,"ops":1}]}`))
	f.Add([]byte(`{"schema":"` + benchReportSchema + `","results":[{"name":"a","ns_per_op":-1},{"name":"b","ns_per_op":1e308}]}`))
	f.Add([]byte(`{"schema":"other/1"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeBenchReport(data)
		if err != nil {
			return
		}
		if regs := CompareBenchReports(r, r, 1); len(regs) != 0 {
			t.Errorf("accepted report regresses against itself: %v", regs)
		}
	})
}
