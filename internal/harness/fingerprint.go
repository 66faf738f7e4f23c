package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/fprint"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// costDomains maps each cost-model domain an experiment can declare to
// the fingerprint of that domain's current constants. The sweep-point
// cache stores every experiment's points under the combined fingerprint
// of its declared domains, so retuning one domain's constants invalidates
// only the experiments that depend on it: a memcached retune leaves every
// cached Exim, PostgreSQL, ... figure replayable.
//
// Tests swap entries here (and restore them) to simulate a retune without
// editing constants.
var costDomains = func() map[string]string {
	d := map[string]string{
		"topo":   topo.Default().Fingerprint(),
		"mem":    mem.FingerprintFor(topo.Default()),
		"kernel": kernel.Fingerprint(),
		"fault":  fault.Fingerprint(),
		"load":   load.Fingerprint(),
		// Cost constants written in one experiment's own body.
		"steering": steeringFingerprint,
		"scount":   scountFingerprint,
	}
	for app, fp := range apps.Fingerprints() {
		d["apps/"+app] = fp
	}
	return d
}()

// appDomains lists every per-application domain, for experiments (fig3,
// fig12) that run the whole MOSBENCH suite.
var appDomains = func() []string {
	var out []string
	for app := range apps.Fingerprints() {
		out = append(out, "apps/"+app)
	}
	sort.Strings(out)
	return out
}()

// coreDomains are the domains every simulated measurement depends on.
var coreDomains = []string{"topo", "mem", "kernel"}

// allCostDomains returns every known domain name, sorted — the
// conservative default for experiments that declare none.
func allCostDomains() []string {
	out := make([]string, 0, len(costDomains))
	for name := range costDomains {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// withApps returns the core domains plus the named applications' domains.
func withApps(appNames ...string) []string {
	out := append([]string(nil), coreDomains...)
	for _, a := range appNames {
		out = append(out, "apps/"+a)
	}
	return out
}

// withAllApps returns the core domains plus every application's domain —
// for the whole-suite experiments (fig3, fig12), which must invalidate on
// any workload's retune. Derived from apps.Fingerprints, so a new
// workload is covered without touching the registrations.
func withAllApps() []string {
	return append(append([]string(nil), coreDomains...), appDomains...)
}

// checkDomains panics on a declared domain that does not exist; domain
// lists are static registration inputs, so a typo is a programming error.
func checkDomains(id string, domains []string) {
	for _, d := range domains {
		if _, ok := costDomains[d]; !ok {
			panic(fmt.Sprintf("harness: experiment %q declares unknown cost domain %q", id, d))
		}
	}
}

// fingerprintFor returns the combined cost-model fingerprint for the
// cache section with the given ID: a canonical digest of the experiment's
// declared domains' fingerprints. An experiment that declares no domains
// (or an unknown ID) combines every domain, so any retune invalidates it —
// the conservative fallback, equivalent to the old global cache version.
//
// A section ID may carry an "@machine" suffix (see cacheSectionID): the
// machine-dependent domains ("topo", "mem") are then taken from that
// machine's description instead of the default's, and the machine name is
// folded in, so every simulated host is its own cacheable cost domain.
// Default-machine sections have no suffix and hash exactly as before —
// the warm cache survives the machine parameterization.
func fingerprintFor(id string) string {
	exp, machineName, _ := strings.Cut(id, "@")
	domains := allCostDomains()
	if e := ByID(exp); e != nil && len(e.Domains) > 0 {
		domains = e.Domains
	}
	var m *topo.Machine
	if machineName != "" {
		// An unregistered name (a profile removed between runs) keeps the
		// default fingerprints; the machine-name term below still keeps the
		// section distinct from every other machine's.
		m, _ = topo.Lookup(machineName)
	}
	f := fprint.New("experiment")
	for _, d := range domains {
		fp := costDomains[d]
		if m != nil {
			switch d {
			case "topo":
				fp = m.Fingerprint()
			case "mem":
				fp = mem.FingerprintFor(m)
			}
		}
		f.C(d, fp)
	}
	if machineName != "" {
		f.C("machine", machineName)
	}
	return f.Sum()
}
