//go:build !race

package slock

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates and so breaks allocation-count guards.
const raceEnabled = false
