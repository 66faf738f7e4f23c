package topo

import (
	"fmt"
)

// RouteTable is a complete chip-to-chip routing over one machine's link
// graph, possibly with links removed: Route(a, b) lists the link indices
// a transfer from chip a to chip b traverses, and Hops(a, b) is that
// path's length. Each machine's healthy table holds its precomputed
// shortest paths; tables built with NewRouteTable reroute
// deterministically around dead links. Tables are immutable after
// construction and safe to share across engines.
type RouteTable struct {
	n      int
	routes [][][]int
	hops   [][]int
	dead   []int
}

// bfsRoutes computes shortest paths over the adjacency lists, skipping
// links in deadSet. Each chip's adjacency order is the deterministic
// tie-break: the first shortest path discovered wins, identically on
// every engine. sortedDead is recorded as the table's DeadLinks.
func bfsRoutes(chips int, adj [][]adjHop, deadSet map[int]bool, sortedDead []int) (*RouteTable, error) {
	rt := &RouteTable{
		n:      chips,
		routes: make([][][]int, chips),
		hops:   make([][]int, chips),
		dead:   sortedDead,
	}
	for a := 0; a < chips; a++ {
		rt.routes[a] = make([][]int, chips)
		rt.hops[a] = make([]int, chips)
		// BFS from a. prev[c] records the (chip, link) we reached c by.
		prev := make([]adjHop, chips)
		seen := make([]bool, chips)
		seen[a] = true
		queue := []int{a}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, n := range adj[c] {
				if deadSet[n.link] || seen[n.chip] {
					continue
				}
				seen[n.chip] = true
				prev[n.chip] = adjHop{c, n.link}
				queue = append(queue, n.chip)
			}
		}
		for b := 0; b < chips; b++ {
			if a == b {
				continue
			}
			if !seen[b] {
				return nil, fmt.Errorf("topo: dead links %v partition the interconnect: no path from chip %d to chip %d", rt.dead, a, b)
			}
			// Walk back from b to a, then reverse into traversal order.
			var rev []int
			for c := b; c != a; c = prev[c].chip {
				rev = append(rev, prev[c].link)
			}
			path := make([]int, len(rev))
			for i, l := range rev {
				path[len(rev)-1-i] = l
			}
			rt.routes[a][b] = path
			rt.hops[a][b] = len(path)
		}
	}
	return rt, nil
}

// Route returns the link indices on the path from chip a to chip b, in
// traversal order (empty for a == b). Callers must not mutate the slice.
func (rt *RouteTable) Route(a, b int) []int {
	if a < 0 || a >= rt.n || b < 0 || b >= rt.n {
		panic(fmt.Sprintf("topo: route %d->%d out of range [0,%d)", a, b, rt.n))
	}
	return rt.routes[a][b]
}

// Hops returns the path length from chip a to chip b under this table; it
// equals the machine's HopDistance on the healthy table and can only grow
// when links are dead (the detour is longer, and its latency charges
// accordingly).
func (rt *RouteTable) Hops(a, b int) int {
	if a < 0 || a >= rt.n || b < 0 || b >= rt.n {
		panic(fmt.Sprintf("topo: hops %d->%d out of range [0,%d)", a, b, rt.n))
	}
	return rt.hops[a][b]
}

// Chips returns the number of chips the table routes between.
func (rt *RouteTable) Chips() int { return rt.n }

// DeadLinks returns the link indices this table routes around (nil for a
// healthy table). Callers must not mutate the slice.
func (rt *RouteTable) DeadLinks() []int { return rt.dead }
