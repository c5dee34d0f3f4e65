package sim

import (
	"repro/internal/metrics"
)

// Parallel-engine metrics, registered on metrics.Default at package init
// so hetsimd's GET /metrics and cmd/experiments' -metrics summary expose
// them without wiring. Handles are pre-resolved so the hot path is a
// single atomic add and the series exist at zero before any parallel run
// happens.
var (
	mWindows = metrics.Default.Counter("sim_engine_windows_total",
		"Flow-control windows completed by the parallel engine's pipelines.")
	mWindowEvents = metrics.Default.Histogram("sim_engine_window_events",
		"Jobs admitted per parallel-engine flow-control window.",
		metrics.LogBuckets(1, 512, 4))
	mStall = metrics.Default.HistogramVec("sim_engine_stall_seconds",
		"Waits of the parallel engine's pipeline: side=timing blocked for the next CTA program, side=gen blocked on a full window.",
		metrics.LogBuckets(1e-6, 10, 2), "side")
	mStallTiming = mStall.With("timing")
	mStallGen    = mStall.With("gen")

	// PersistentFallbacks counts parallel runs that stopped pipelining at
	// a persistent-kernel launch, whose batch dispatch order is
	// timing-dependent.
	PersistentFallbacks = metrics.Default.CounterVec("sim_engine_serial_fallback_total",
		"Runs (or kernels) that fell back to the serial engine despite a parallel request, by reason.",
		"reason").With("persistent-kernel")
)
