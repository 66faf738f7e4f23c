package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// rowDiff counts the rows of got that do not match want: a row of want
// that is missing from got or differs from it counts once, and so does a
// row of got that want lacks. Rows are matched by their first three
// fields (experiment, variant, cores), which identify a sweep point; the
// header counts as one row.
func rowDiff(want, got string) int {
	wantRows, wantHdr := csvRows(want)
	gotRows, gotHdr := csvRows(got)
	n := 0
	if wantHdr != gotHdr {
		n++
	}
	for k, row := range wantRows {
		if gotRows[k] != row {
			n++
		}
	}
	for k := range gotRows {
		if _, ok := wantRows[k]; !ok {
			n++
		}
	}
	return n
}

// csvRows splits a CSV into its header and its rows keyed by point.
func csvRows(csv string) (map[string]string, string) {
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	rows := make(map[string]string, len(lines))
	for _, l := range lines[1:] {
		f := strings.SplitN(l, ",", 4)
		rows[strings.Join(f[:min(3, len(f))], ",")] = l
	}
	return rows, lines[0]
}

// goldenPath is where the golden CSV for (workload, seed) lives.
func goldenPath(dir, name string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.csv", name, seed))
}

// goldenSeeds are the seeds with committed goldens; a missing golden for
// one of them is an error, not a fallback to the rep-consistency check.
var goldenSeeds = []uint64{1, 2}

// readGolden returns the golden CSV for (workload, seed), or ok=false when
// the seed has none.
func readGolden(dir, name string, seed uint64) (csv string, ok bool, err error) {
	data, err := os.ReadFile(goldenPath(dir, name, seed))
	switch {
	case err == nil:
		return string(data), true, nil
	case errors.Is(err, fs.ErrNotExist):
		for _, s := range goldenSeeds {
			if s == seed {
				return "", false, fmt.Errorf("golden for %s seed %d: %w (write it with -write-golden)", name, seed, err)
			}
		}
		return "", false, nil
	default:
		return "", false, fmt.Errorf("golden for %s seed %d: %w", name, seed, err)
	}
}
