// Package lint is the mosvet analyzer registry: the suite of custom
// static checks that turn the simulator's runtime invariants —
// bit-identical determinism, fingerprint-complete cost models,
// cache-key completeness — into vet diagnostics. cmd/mosvet runs the
// registry under `go vet -vettool`; linttest runs individual analyzers
// over fixtures.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cachekeylint"
	"repro/internal/lint/detlint"
	"repro/internal/lint/fprintcheck"
)

// All returns the registered analyzers in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	out := []*analysis.Analyzer{
		cachekeylint.Analyzer,
		detlint.Analyzer,
		fprintcheck.Analyzer,
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered analyzer names, sorted.
func Names() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name)
	}
	return out
}

// Select resolves a comma-separated analyzer list to analyzers. Unknown
// names produce an error listing candidates (prefix and substring
// matches first, then the full registry), matching cmd/mosbench's
// flag-error conventions.
func Select(names string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q; candidates: %s", name, strings.Join(candidates(name), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected; have %s", strings.Join(Names(), ", "))
	}
	return out, nil
}

// candidates lists analyzer names, closest matches to name first.
func candidates(name string) []string {
	var near, rest []string
	for _, n := range Names() {
		if strings.Contains(n, name) || strings.Contains(name, n) ||
			strings.HasPrefix(n, firstRunes(name, 3)) {
			near = append(near, n)
		} else {
			rest = append(rest, n)
		}
	}
	return append(near, rest...)
}

func firstRunes(s string, n int) string {
	r := []rune(s)
	if len(r) > n {
		r = r[:n]
	}
	return string(r)
}
