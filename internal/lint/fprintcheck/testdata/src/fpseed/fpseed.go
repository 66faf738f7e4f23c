// Package fpseed is the fprintcheck regression seed: a cost domain whose
// costs sit in a table, plus constants that feed its charging path from
// outside the table. The want comments pin the diagnostics; if
// fprintcheck ever stops firing here, the cache-poisoning bug class it
// guards against has gone invisible again.
package fpseed

import "repro/internal/fprint"

// clock stands in for the engine's charging surface: to fprintcheck,
// any method call named Advance/Use/AccessSet/... is a charging
// callsite, whatever the receiver type.
type clock struct{ t int64 }

func (c *clock) Advance(d int64) { c.t += d }

// costs is the domain's cost table: its fields are fingerprinted by
// construction, so charging them is fine.
var costs = struct{ hit, miss int64 }{hit: 120, miss: 250}

var fingerprint = fprint.New("fpseed").Table(costs).Sum()

// costStray is charged but declared outside the table.
const costStray = 40 // want "cost constant costStray feeds the charging path .via runSeed. outside the package's cost table"

// costRecorded is recorded by name in the fingerprint, but a charged
// constant belongs in the table: the one rule has no second list.
const costRecorded = 9 // want "cost constant costRecorded feeds the charging path .via runIndirect."

// costVarMiss feeds charging only through a package var's initializer;
// the reference is traced through the var and flagged at the constant.
const costVarMiss = 7 // want "cost constant costVarMiss feeds the charging path"

var tunedCost = costVarMiss * 3

// mode tags are an iota enumeration: variant selectors, not costs.
const (
	modeA = iota
	modeB
)

func runSeed(c *clock, mode int) {
	c.Advance(costs.hit)
	c.Advance(costStray)
	c.Advance(int64(tunedCost))
	if mode == modeB {
		c.Advance(costs.miss)
	}
}

func charge(c *clock, d int64) { c.Advance(d) }

// runIndirect charges only through charge, so its constants are on the
// charging path too.
func runIndirect(c *clock) { charge(c, costRecorded) }

// Fingerprint returns the domain's fingerprint.
func Fingerprint() string {
	return fprint.New("fpseed-outer").C("table", fingerprint).C("costRecorded", costRecorded).Sum()
}
