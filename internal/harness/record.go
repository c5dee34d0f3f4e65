package harness

import (
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
)

// OutcomeRecord is the lossless, JSON-round-trippable persistence form of
// an Outcome — the run record the store keeps per completed run, so a
// later sweep or request can rebuild the outcome exactly and render
// byte-identical reports. It mirrors Outcome field for field except Sys:
// a simulated machine cannot (and need not) be serialized, so reused
// outcomes carry a nil Sys and consumers that inspect live counters must
// guard for it.
//
// Losslessness matters: core.Report round-trips exactly through
// encoding/json (integer Ticks, exact shortest-form floats), which is
// what lets a resumed sweep's stdout match an uninterrupted sweep's byte
// for byte. The human-oriented ReportJSON/OutcomeJSON forms are lossy
// (millisecond floats) and deliberately not used here.
type OutcomeRecord struct {
	Report   *core.Report `json:"report,omitempty"`
	Err      *RunError    `json:"err,omitempty"`
	Attempts int          `json:"attempts"`
	Size     bench.Size   `json:"size"`
	Degraded bool         `json:"degraded,omitempty"`
	SimTime  sim.Tick     `json:"sim_time"`
	Events   uint64       `json:"events"`
	// Wall round-trips as integer nanoseconds (time.Duration's native
	// JSON form), so replayed wall numbers are the recorded ones exactly.
	Wall          time.Duration `json:"wall"`
	AttemptErrors []RunError    `json:"attempt_errors,omitempty"`
	TraceEvents   int           `json:"trace_events,omitempty"`
}

// Record converts an Outcome to its persistence form. The live system
// handle is dropped; everything else is carried verbatim.
func (o *Outcome) Record() *OutcomeRecord {
	return &OutcomeRecord{
		Report:        o.Report,
		Err:           o.Err,
		Attempts:      o.Attempts,
		Size:          o.Size,
		Degraded:      o.Degraded,
		SimTime:       o.SimTime,
		Events:        o.Events,
		Wall:          o.Wall,
		AttemptErrors: o.AttemptErrors,
		TraceEvents:   o.TraceEvents,
	}
}

// Outcome rebuilds the Outcome a record was taken from. Sys is nil — the
// one field that does not survive persistence.
func (r *OutcomeRecord) Outcome() *Outcome {
	return &Outcome{
		Report:        r.Report,
		Err:           r.Err,
		Attempts:      r.Attempts,
		Size:          r.Size,
		Degraded:      r.Degraded,
		SimTime:       r.SimTime,
		Events:        r.Events,
		Wall:          r.Wall,
		AttemptErrors: r.AttemptErrors,
		TraceEvents:   r.TraceEvents,
	}
}
