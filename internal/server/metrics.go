package server

import (
	"repro/internal/metrics"
)

// serverMetrics is the daemon's instrument panel: every handle is resolved
// once at construction, so the request path touches only atomic slots. The
// families live in the registry GET /metrics serves (metrics.Default unless
// Config.Metrics overrides it), alongside the run-lifecycle families the
// harness layer registers — one scrape describes the whole serving path,
// from HTTP status codes down to engine events.
type serverMetrics struct {
	// requests/latency are labeled by route (a fixed set — unknown paths
	// collapse to "other", so label cardinality is bounded) and, for
	// requests, the final HTTP status code.
	requests *metrics.CounterVec
	latency  *metrics.HistogramVec

	// Admission: rejections by reason, the wait every admitted or rejected
	// request spent queued, and the gate's live state.
	rejectedBusy          metrics.Counter // 429: slots and waiting line full
	rejectedQueueDeadline metrics.Counter // 504: deadline expired while queued
	rejectedDraining      metrics.Counter // 503: drain had begun
	rejectedCanceled      metrics.Counter // client vanished while queued
	queueWait             metrics.Histogram
	inFlight              metrics.Gauge // admitted weight = concurrent sims
	waiting               metrics.Gauge

	// The run store: document hits and misses, quarantines, reused runs.
	cacheHits        metrics.Counter
	cacheMisses      metrics.Counter
	cacheQuarantined metrics.Counter
	sweepsResumed    metrics.Counter // sweeps that reused stored runs
	resumedRuns      metrics.Counter // runs reused instead of executed
	coalesced        metrics.Counter // requests served by another's result

	// Streaming: clients too slow to drain their own progress stream.
	rejectedSlowClient metrics.Counter

	// Persistence health: the degraded (no-persistence) mode switch, the
	// failures that flipped it (by failing operation), and recoveries.
	persistDegraded   metrics.Gauge // 1 while degraded, else 0
	degradedRecordPut metrics.Counter
	degradedCachePut  metrics.Counter
	persistRecovered  metrics.Counter

	// State-dir budgeting: live usage, quota evictions, GC activity.
	stateBytes       metrics.Gauge
	evictedEntries   metrics.Counter
	gcRuns           metrics.Counter
	gcFailures       metrics.Counter
	gcRemovedTmp     metrics.Counter
	gcRemovedCorrupt metrics.Counter
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	rejected := r.CounterVec("hetsimd_rejected_total",
		"Requests rejected or cut short, by reason (busy=429, queue_deadline=504, draining=503, canceled=client gone, slow_client=stalled stream reader disconnected).",
		"reason")
	degraded := r.CounterVec("hetsimd_persist_degraded_total",
		"Persistence failures that flipped (or kept) the daemon in degraded no-persistence mode, by failing operation.",
		"op")
	removed := r.CounterVec("hetsimd_gc_removed_total",
		"State-dir files removed by garbage collection, by kind (tmp=orphaned temp files, corrupt=aged quarantines).",
		"kind")
	evicted := r.CounterVec("hetsimd_evicted_total",
		"Files evicted to keep the state dir under its byte quota, by kind.",
		"kind")
	return &serverMetrics{
		requests: r.CounterVec("hetsimd_http_requests_total",
			"HTTP requests served, by route and final status code.", "route", "code"),
		latency: r.HistogramVec("hetsimd_http_request_seconds",
			"HTTP request wall time in seconds, by route.",
			metrics.LogBuckets(0.001, 600, 3), "route"),
		rejectedBusy:          rejected.With("busy"),
		rejectedQueueDeadline: rejected.With("queue_deadline"),
		rejectedDraining:      rejected.With("draining"),
		rejectedCanceled:      rejected.With("canceled"),
		queueWait: r.Histogram("hetsimd_gate_queue_wait_seconds",
			"Time a request spent waiting for admission (near-zero when slots were free).",
			metrics.LogBuckets(1e-6, 600, 2)),
		inFlight: r.Gauge("hetsimd_gate_in_flight_weight",
			"Admitted weight: the number of simulations allowed to execute concurrently right now."),
		waiting: r.Gauge("hetsimd_gate_waiting",
			"Requests currently queued in the bounded admission line."),
		cacheHits: r.Counter("hetsimd_cache_hits_total",
			"Requests whose response document was already in the verified run store."),
		cacheMisses: r.Counter("hetsimd_cache_misses_total",
			"Requests that assembled their response because no valid stored document existed."),
		cacheQuarantined: r.Counter("hetsimd_cache_quarantined_total",
			"Corrupt store entries (run records or documents) renamed aside and recomputed."),
		sweepsResumed: r.Counter("hetsimd_sweeps_resumed_total",
			"Sweep requests that reused runs already in the run store (an interrupted sweep resuming, or runs an earlier request completed)."),
		resumedRuns: r.Counter("hetsimd_resumed_runs_total",
			"Runs reused from the run store instead of executed."),
		coalesced: r.Counter("hetsimd_coalesced_total",
			"Requests that waited on an identical in-flight request and were served its result."),
		rejectedSlowClient: rejected.With("slow_client"),
		persistDegraded: r.Gauge("hetsimd_persist_degraded",
			"1 while the daemon is in degraded no-persistence mode (serving from memory, not storing runs or documents), else 0."),
		degradedRecordPut: degraded.With("record_put"),
		degradedCachePut:  degraded.With("cache_put"),
		persistRecovered: r.Counter("hetsimd_persist_recovered_total",
			"Times the persistence probe succeeded and the daemon left degraded mode."),
		stateBytes: r.Gauge("hetsimd_state_bytes",
			"Total bytes in the run store dir at the last GC or quota check."),
		evictedEntries: evicted.With("entry"),
		gcRuns: r.Counter("hetsimd_gc_runs_total",
			"State-dir garbage-collection passes completed (startup plus periodic)."),
		gcFailures: r.Counter("hetsimd_gc_failures_total",
			"Individual removals or evictions the garbage collector attempted and could not complete."),
		gcRemovedTmp:     removed.With("tmp"),
		gcRemovedCorrupt: removed.With("corrupt"),
	}
}
