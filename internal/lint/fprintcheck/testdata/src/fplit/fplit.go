// Package fplit pins fprintcheck's literal rule: a charging call whose
// argument is a constant written with literals only is a cost outside
// the cost table, as an untabled named constant is. Arguments that read
// the table, a computed value or a named constant are not literal
// charges; the unit count 1 and an annotated literal are exempt.
package fplit

import "repro/internal/fprint"

type clock struct{ t int64 }

func (c *clock) Advance(d int64) { c.t += d }

func (c *clock) Use(n int, d int64) { c.t += int64(n) * d }

// stack charges its byte counts, as the network stack's Send does.
type stack struct{ bytes int64 }

func (s *stack) Send(c *clock, n int64) { s.bytes += n }

var costs = struct{ hit int64 }{hit: 120}

// Fingerprint returns the domain's fingerprint.
func Fingerprint() string { return fprint.New("fplit").Table(costs).Sum() }

func run(c *clock, s *stack, n int64) {
	c.Advance(60)          // want "literal cost 60 is charged by Advance outside the package's cost table"
	s.Send(c, 64*1024)     // want "literal cost 64 . 1024 is charged by Send"
	c.Advance(4*300 + 800) // want "literal cost 4 . 300 . 800 is charged by Advance"
	c.Advance(int64(7))    // want "literal cost int64.7. is charged by Advance"
	c.Use(2, costs.hit)    // want "literal cost 2 is charged by Use"

	// Not literal charges: table fields, computed values, and table
	// fields scaled by a literal.
	c.Advance(costs.hit)
	c.Advance(costs.hit / 2)
	c.Advance(n * 3)
	c.Use(1, costs.hit) // one item: a count, not a cost

	//mosvet:allow fprintcheck narrative delay in an uncached trace
	c.Advance(1000)
}

// add is not a charging method: its literal arguments are not costs.
func add(a, b int64) int64 { return a + b }

var _ = add(1, 2)
