package fprintcheck_test

import (
	"testing"

	"repro/internal/lint/fprintcheck"
	"repro/internal/lint/linttest"
)

// TestRegressionSeed pins the charged constants the fpseed fixture
// declares outside its cost table: fprintcheck must keep firing on them,
// and stay silent on the table's fields.
func TestRegressionSeed(t *testing.T) {
	linttest.Run(t, fprintcheck.Analyzer, "testdata/src/fpseed", "repro/internal/fpseed")
}

func TestAllowSuppresses(t *testing.T) {
	linttest.Run(t, fprintcheck.Analyzer, "testdata/src/fpallow", "repro/internal/fpallow")
}

func TestNoFingerprintSilent(t *testing.T) {
	linttest.Run(t, fprintcheck.Analyzer, "testdata/src/fpnone", "repro/internal/fpnone")
}

func TestOutsideScopeSilent(t *testing.T) {
	linttest.RunSilent(t, fprintcheck.Analyzer, "testdata/src/fpseed", "example.com/outside")
}

// TestLiteralCharges pins the literal rule: a charging call's argument
// written with literals only is reported, the table's fields and values
// computed from them are not, and an annotated literal is exempt.
func TestLiteralCharges(t *testing.T) {
	linttest.Run(t, fprintcheck.Analyzer, "testdata/src/fplit", "repro/internal/fplit")
}
