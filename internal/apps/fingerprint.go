package apps

import "repro/internal/fprint"

// fingerprints maps each workload to the canonical fingerprint of its
// tuning: its cost table (the calibrated work constants) plus the default
// options the harness runs it with. Retuning one application's constants
// changes only that application's fingerprint, so the sweep-point cache
// invalidates only the figures that application appears in.
var fingerprints = map[string]string{
	"exim": fprint.New("apps/exim").
		Table(eximCosts).
		C("eximConfigPaths", len(eximConfigPaths)).
		C("defaults", DefaultEximOpts()).
		Sum(),
	"memcached": fprint.New("apps/memcached").Table(memcachedCosts).C("defaults", DefaultMemcachedOpts()).Sum(),
	"apache":    fprint.New("apps/apache").Table(apacheCosts).C("defaults", DefaultApacheOpts()).Sum(),
	"postgres":  fprint.New("apps/postgres").Table(postgresCosts).C("defaults", DefaultPostgresOpts()).Sum(),
	"gmake":     fprint.New("apps/gmake").Table(gmakeCosts).C("defaults", DefaultGmakeOpts()).Sum(),
	"pedsort":   fprint.New("apps/pedsort").Table(pedsortCosts).C("defaults", DefaultPedsortOpts()).Sum(),
	"metis":     fprint.New("apps/metis").Table(metisCosts).C("defaults", DefaultMetisOpts()).Sum(),
}

// Fingerprints returns a copy of the per-workload cost fingerprints,
// keyed by lowercase application name (exim, memcached, apache, postgres,
// gmake, pedsort, metis).
func Fingerprints() map[string]string {
	out := make(map[string]string, len(fingerprints))
	for k, v := range fingerprints {
		out[k] = v
	}
	return out
}
