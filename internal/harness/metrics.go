package harness

import (
	"repro/internal/metrics"
)

// Run-lifecycle metrics, registered on metrics.Default at package init so
// the hetsimd daemon's GET /metrics and cmd/experiments' -metrics summary
// expose the same counters without any wiring. The failure counters are
// pre-resolved per Kind into an array — incrementing one is a single
// atomic add, keeping the harness off every allocation profile.
var (
	mRunsStarted = metrics.Default.Counter("sim_runs_started_total",
		"Benchmark runs the harness began executing (runs reused from a run store excluded).")
	mRunsCompleted = metrics.Default.Counter("sim_runs_completed_total",
		"Benchmark runs that finished with a report.")
	mRunsFailed = metrics.Default.CounterVec("sim_runs_failed_total",
		"Benchmark runs that ended in a RunError, by failure kind.", "kind")
	mRunsRetried = metrics.Default.Counter("sim_runs_retried_total",
		"Retry attempts (degraded re-runs after budget failures).")
	mRunEvents = metrics.Default.Counter("sim_run_events_total",
		"Simulation engine events executed by final run attempts.")
	mEventsPerSec = metrics.Default.Histogram("sim_run_events_per_second",
		"Engine event throughput per run (final-attempt events over total wall time).",
		metrics.LogBuckets(1e3, 1e9, 2))
	mStallTrips = metrics.Default.Counter("sim_stall_trips_total",
		"Stall-watchdog interrupts delivered to wedged runs.")

	// failedByKind pre-resolves one counter per failure kind; kinds are a
	// small closed enum so the array resolves fully at init.
	failedByKind [KindStalled + 1]metrics.Counter
)

func init() {
	for k := KindPanic; k <= KindStalled; k++ {
		failedByKind[k] = mRunsFailed.With(k.String())
	}
}

// failedCounter returns the counter for a failure kind (tolerating an
// out-of-range Kind from future code by resolving it dynamically).
func failedCounter(k Kind) metrics.Counter {
	if k >= 0 && int(k) < len(failedByKind) {
		return failedByKind[k]
	}
	return mRunsFailed.With(k.String())
}
