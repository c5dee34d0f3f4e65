package experiments

import (
	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/trace"
)

// sweepSpecs builds the runs a sweep of (size, opts) executes: one spec
// per (benchmark, mode) slot — every selected benchmark in each of its
// modes, in the registry's stable order — carrying the sweep's budgets,
// injected faults, stall window, tracing and PerRun adjustment. RunSweep runs
// exactly these specs and SweepFingerprint hashes exactly their run keys.
func sweepSpecs(size bench.Size, opts SweepOpts) []harness.Spec {
	var only map[string]bool
	if opts.Only != nil {
		only = map[string]bool{}
		for _, n := range opts.Only {
			only[n] = true
		}
	}
	tmpl := specTemplate(size, opts)
	var specs []harness.Spec
	for _, b := range bench.All() {
		if only != nil && !only[b.Info().FullName()] {
			continue
		}
		for _, m := range b.Info().Modes() {
			spec := tmpl
			spec.Bench, spec.Mode, spec.Machine = b, m, withFaults(m, opts.Fault)
			if opts.Trace {
				spec.Trace = trace.New()
			}
			if opts.PerRun != nil {
				opts.PerRun(&spec)
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// specTemplate is the spec every run of (size, opts) starts from, before
// sweepSpecs, FaultSweep or AblationSweep sets its benchmark, mode and
// machine.
func specTemplate(size bench.Size, opts SweepOpts) harness.Spec {
	return harness.Spec{
		Size: size, Budget: opts.Budget,
		Ctx: opts.RunCtx, Stall: opts.Stall, RequestID: opts.RequestID,
		Parallel: opts.Parallel,
	}
}

// withFaults is mode's stock machine with faults f injected.
func withFaults(mode bench.Mode, f config.FaultConfig) *config.System {
	m := bench.ConfigFor(mode)
	m.Faults = f
	return &m
}

// runner is the RunSpecs configuration opts carries.
func (opts SweepOpts) runner() Runner {
	return Runner{Jobs: opts.Jobs, Ctx: opts.Ctx, Store: opts.Store, Progress: opts.Progress, OnStored: opts.OnStored}
}

// SweepFingerprint is the key of a sweep's response document: a hash of
// the ordered run keys of the runs the sweep executes. A document is a
// pure function of its runs, so the key moves exactly when a run's
// result inputs do, or when the slot list changes (a benchmark gaining or
// losing an organization adds or drops a slot). The worker counts (Jobs,
// Parallel) stay out because run keys leave them out: a sweep served with
// jobs 8 is the same document as one served with jobs 1.
func SweepFingerprint(size bench.Size, opts SweepOpts) string {
	specs := sweepSpecs(size, opts)
	keys := make([]string, len(specs))
	for i := range specs {
		keys[i] = store.RunKey(specs[i])
	}
	return store.DocKey("sweep", keys...)
}

// RunDocKey is the key of one run's response document (hetsimd's
// /v1/run): a hash of the run's key, so the document moves exactly when
// its run does, yet never shares a key with the run's record.
func RunDocKey(spec harness.Spec) string {
	return store.DocKey("run", store.RunKey(spec))
}
