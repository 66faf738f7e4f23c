package scount

import "repro/internal/fprint"

// fingerprint covers the sloppy-counter tuning; the per-access coherence
// charges come from mem, which carries its own fingerprint. Its one entry,
// the exported DefaultSpareThreshold, seeds Sloppy.Threshold and is read
// by no charging path, so it stays a constant rather than a table field.
var fingerprint = fprint.New("scount").C("DefaultSpareThreshold", DefaultSpareThreshold).Sum()

// Fingerprint returns the canonical fingerprint of this package's cost
// constants; kernel.Fingerprint folds it into the kernel cost domain.
func Fingerprint() string { return fingerprint }
