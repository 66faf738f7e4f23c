package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/topo"
)

func init() {
	register(Experiment{
		ID:      "machines",
		Title:   "Stock vs PK scaling across machine profiles",
		Paper:   "Figures 4/5 re-run per registered host profile: where collapse onset moves with machine shape",
		Domains: withApps("exim", "memcached"),
		Run:     runMachines,
	})
}

// machinesCollapseFrac defines collapse onset: the first core count where
// a curve's per-core throughput falls below this fraction of its running
// peak. The paper's stock curves collapse (Figures 4, 5); the PK curves
// are expected to sustain through the full machine.
const machinesCollapseFrac = 0.5

// machineOrder lists the registered profiles with the default host first,
// so the paper's machine anchors the table and every movement note reads
// against it.
func machineOrder() []string {
	def := topo.Default().Name
	out := []string{def}
	for _, n := range topo.Names() {
		if n != def {
			out = append(out, n)
		}
	}
	return out
}

// runMachines sweeps the fig4 (Exim) and fig5 (memcached) stock-vs-PK
// grids on every registered machine profile. Each profile runs its own
// machine-sized core grid and caches under its own section, so the
// default machine's points are shared with fig4/fig5 reruns in spirit but
// never alias them (the variant labels differ). The Notes report each
// curve's collapse onset and how the stock onsets move relative to the
// default host.
func runMachines(o Options) *Series {
	s := &Series{ID: "machines", Title: "Stock vs PK across machine profiles", Unit: "ops/s/core"}
	workloads := []*mosApp{mosAppNamed("Exim"), mosAppNamed("memcached")}
	names := machineOrder()
	for _, name := range names {
		m, ok := topo.Lookup(name)
		if !ok {
			continue
		}
		so := o
		so.Machine = m
		so.Cores = nil // each profile sweeps its own machine-sized grid
		var runs []variantRun
		for _, w := range workloads {
			for _, v := range w.pair() {
				runs = append(runs, variantRun{fmt.Sprintf("%s %s %s", name, w.name, v.name), v.run})
			}
		}
		so.runGrid(s, runs)
	}

	s.Notes = append(s.Notes, fmt.Sprintf(
		"collapse onset: first core count where per-core throughput drops below %d%% of the curve's running peak",
		int(machinesCollapseFrac*100)))
	stockOnset := map[string]map[string]int{} // profile -> app -> onset cores (0 = none)
	for _, name := range names {
		m, ok := topo.Lookup(name)
		if !ok {
			continue
		}
		stockOnset[name] = map[string]int{}
		var cells []string
		for _, w := range workloads {
			for _, v := range []string{"Stock", "PK"} {
				label := fmt.Sprintf("%s %s %s", name, w.name, v)
				cell := fmt.Sprintf("none (%dc)", m.MaxCores())
				if c, ok := seriesCollapseOnset(s, label); ok {
					cell = fmt.Sprintf("%dc", c)
					if v == "Stock" {
						stockOnset[name][w.name] = c
					}
				}
				cells = append(cells, fmt.Sprintf("%s %s: %s", w.name, v, cell))
			}
		}
		s.Notes = append(s.Notes, fmt.Sprintf("  %-8s %s", name, strings.Join(cells, "   ")))
	}
	def := names[0]
	for _, name := range names[1:] {
		var moves []string
		for _, w := range workloads {
			from, to := stockOnset[def][w.name], stockOnset[name][w.name]
			switch {
			case from == 0 && to == 0:
				moves = append(moves, fmt.Sprintf("%s Stock: none on either", w.name))
			case to == 0:
				moves = append(moves, fmt.Sprintf("%s Stock: %dc -> none", w.name, from))
			case from == 0:
				moves = append(moves, fmt.Sprintf("%s Stock: none -> %dc", w.name, to))
			default:
				moves = append(moves, fmt.Sprintf("%s Stock: %dc -> %dc (%+dc)", w.name, from, to, to-from))
			}
		}
		s.Notes = append(s.Notes, fmt.Sprintf("  onset movement %s vs %s: %s", name, def, strings.Join(moves, ", ")))
	}
	return s
}

// seriesCollapseOnset scans one variant's curve (cores ascending) for the first
// point whose per-core throughput is below machinesCollapseFrac of the
// running peak. Returns false if the curve never collapses.
func seriesCollapseOnset(s *Series, variant string) (int, bool) {
	var pts []Point
	for _, p := range s.Points {
		if p.Variant == variant {
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Cores < pts[j].Cores })
	peak := 0.0
	for _, p := range pts {
		if p.PerCore > peak {
			peak = p.PerCore
		}
		if peak > 0 && p.PerCore < machinesCollapseFrac*peak {
			return p.Cores, true
		}
	}
	return 0, false
}
