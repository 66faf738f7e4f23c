package main

import (
	"os"
	"strings"
	"testing"
)

// TestOneChangedGoldenCellFailsOnePoint is the failure accounting end to
// end: a repetition whose output matches the committed golden except for
// one cell reports exactly one failed point.
func TestOneChangedGoldenCellFailsOnePoint(t *testing.T) {
	data, err := os.ReadFile(goldenPath("../golden", "exim-grid", 1))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(data)
	lines := strings.Split(golden, "\n")
	cells := strings.Split(lines[5], ",")
	cells[3] += "1" // per_core of one point
	lines[5] = strings.Join(cells, ",")
	changed := strings.Join(lines, "\n")

	r := rep{childResult: childResult{repOutput: repOutput{CSV: changed, Points: 28}}}
	r.GoldenFailed = rowDiff(golden, r.CSV)
	rp := newReport(config{w: workloads[0], seed: 1}, []rep{r}, nil)
	if rp.Failed != 1 || rp.Correct {
		t.Fatalf("one changed cell: failed=%d correct=%v, want 1 and false", rp.Failed, rp.Correct)
	}
}

func TestRowDiff(t *testing.T) {
	const hdr = "experiment,variant,cores,per_core\n"
	base := hdr + "fig4,Stock,1,10\nfig4,Stock,2,9\n"
	for _, tc := range []struct {
		name, got string
		want      int
	}{
		{"identical", base, 0},
		{"missing row", hdr + "fig4,Stock,1,10\n", 1},
		{"extra row", base + "fig4,PK,1,10\n", 1},
		{"reordered rows", hdr + "fig4,Stock,2,9\nfig4,Stock,1,10\n", 0},
		{"changed header", "x" + base, 1},
		{"empty output", "", 3},
	} {
		if got := rowDiff(base, tc.got); got != tc.want {
			t.Errorf("%s: rowDiff = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestGoldensExistForEveryWorkload checks that seeds 1 and 2 of every
// workload have a golden that starts with the harness CSV header.
func TestGoldensExistForEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			csv, ok, err := readGolden("../golden", w.name, seed)
			if err != nil || !ok {
				t.Fatalf("%s seed %d: ok=%v err=%v", w.name, seed, ok, err)
			}
			if !strings.HasPrefix(csv, "experiment,variant,cores,") || strings.Count(csv, "\n") < 2 {
				t.Errorf("%s seed %d: golden is not a harness CSV", w.name, seed)
			}
		}
	}
	if _, ok, err := readGolden("../golden", "exim-grid", 3); ok || err != nil {
		t.Errorf("seed 3 has no golden: want ok=false, nil error; got %v, %v", ok, err)
	}
}
