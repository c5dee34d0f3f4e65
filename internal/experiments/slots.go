package experiments

import (
	"strconv"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/store"
)

// sweepSlots builds the sweep's run slots, each a copy of tmpl: every
// registered benchmark (filtered by only when non-nil) in copy and
// limited-copy mode plus its extra modes, in the registry's stable order.
func sweepSlots(only map[string]bool, tmpl harness.Spec) []harness.Spec {
	var slots []harness.Spec
	for _, b := range bench.All() {
		if only != nil && !only[b.Info().FullName()] {
			continue
		}
		for _, m := range b.Info().Modes() {
			tmpl.Bench, tmpl.Mode = b, m
			slots = append(slots, tmpl)
		}
	}
	return slots
}

func onlySet(only []string) map[string]bool {
	if only == nil {
		return nil
	}
	set := map[string]bool{}
	for _, n := range only {
		set[n] = true
	}
	return set
}

// SweepFingerprint is the key of a sweep's response document: a hash of
// everything that determines the sweep's results — the simulated system
// configurations, the input size, the ordered (benchmark, mode) slot
// list, the fault plan, the per-run budgets, and whether tracing is on.
// The worker counts (Jobs, Parallel) are deliberately excluded: results
// are identical for every value, so a sweep served with jobs 8 is the
// same document as one served with jobs 1. Each slot's run record has
// its own key (store.RunKey); this one names the assembled document.
func SweepFingerprint(size bench.Size, opts SweepOpts) string {
	var fp store.Fingerprint
	fp.Add("version", store.Version)
	fp.AddSystems()
	fp.Add("size", size.String())
	// Each benchmark's full organization list, explicitly. The slot list
	// below already encodes it implicitly, but hashing the mode set by
	// name guarantees a document written before a benchmark
	// gained (or lost) an organization can never alias the new sweep, even
	// if slot enumeration is ever restructured.
	only := onlySet(opts.Only)
	for _, b := range bench.All() {
		info := b.Info()
		if only != nil && !only[info.FullName()] {
			continue
		}
		line := info.FullName()
		for _, m := range info.Modes() {
			line += " " + m.String()
		}
		fp.Add("modes", line)
	}
	for _, s := range sweepSlots(only, harness.Spec{}) {
		fp.Add("slot", s.Bench.Info().FullName()+"|"+s.Mode.String())
	}
	fp.Add("fault", opts.Fault.String())
	fp.Add("max_events", strconv.FormatUint(opts.Budget.MaxEvents, 10))
	fp.Add("timeout", opts.Budget.Timeout.String())
	fp.Add("stall", opts.Stall.String())
	fp.Add("trace", strconv.FormatBool(opts.Trace))
	return fp.Sum()
}
