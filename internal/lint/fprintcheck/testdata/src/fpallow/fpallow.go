// Package fpallow proves //mosvet:allow fprintcheck: a charged constant
// annotated with a reason is exempt from the cost-table requirement.
// The fixture carries no want comments, so the test asserts silence.
package fpallow

import "repro/internal/fprint"

type meter struct{ n int64 }

func (m *meter) Use(v int64) { m.n += v }

// debugSpin is charged but deliberately kept out of the cost table:
//
//mosvet:allow fprintcheck diagnostic-only spin cost, zeroed in every cached configuration
const debugSpin = 3

var costs = struct{ realCost int64 }{realCost: 9}

func tick(m *meter) {
	m.Use(debugSpin)
	m.Use(costs.realCost)
}

// Fingerprint records the table, which holds every cost that matters to
// cached results.
func Fingerprint() string {
	return fprint.New("fpallow").Table(costs).Sum()
}
