package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/harness"
)

// SweepRequest is the JSON body of POST /v1/sweep: which benchmarks to
// sweep and under what budgets. Everything is optional; the zero request
// sweeps every registered benchmark at the small size with no budgets.
type SweepRequest struct {
	// Benchmarks restricts the sweep to these full names ("suite/name");
	// empty sweeps every registered benchmark.
	Benchmarks []string `json:"benchmarks,omitempty"`
	RunKnobs
	// Jobs is how many simulations of this request may run concurrently
	// (its admission weight). 0 and 1 mean serial; values above the
	// server's pool size are clamped to it. Like parallel it is excluded
	// from every key.
	Jobs int `json:"jobs,omitempty"`
}

// RunRequest is the JSON body of POST /v1/run: one benchmark, one mode.
type RunRequest struct {
	// Benchmark is the full "suite/name" to run. Required.
	Benchmark string `json:"benchmark"`
	// Mode is "copy" (default), "limited-copy", "async-streams", or
	// "parallel-chunked".
	Mode string `json:"mode,omitempty"`
	RunKnobs
}

// RunKnobs are the per-run fields both request bodies carry, at the top
// level of their JSON. Fields that change simulation results (size,
// budgets, fault plan, stall) are part of every run's key and so of the
// document key; fields that only change scheduling (parallel) or request
// lifetime (deadline) are not, so the same experiment always maps to the
// same stored document and runs.
type RunKnobs struct {
	// Size is "small" (default) or "medium".
	Size string `json:"size,omitempty"`
	// MaxEvents is the per-run simulation event budget (0 = unlimited).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// TimeoutMs is the per-run wall-clock budget in ms (0 = unlimited).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// StallMs arms the per-run stall watchdog: a run whose simulated
	// clock freezes this long while events churn is killed (0 = off).
	StallMs int64 `json:"stall_ms,omitempty"`
	// Fault injects hardware degradations into every run, in the -inject
	// syntax, e.g. "pcie=0.25,fault=8,dram=0:100:600".
	Fault string `json:"fault,omitempty"`
	// DeadlineMs bounds the whole request in wall-clock ms; past it,
	// in-flight runs are canceled and the request fails with a deadline
	// error (0 = no deadline beyond the client's own patience).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Parallel is each run's intra-run parallelism (harness.Spec.Parallel).
	// 0 and 1 simulate serially; 2 and up pipeline trace generation on one
	// worker inside every run. Results are byte-identical for every value.
	Parallel int `json:"parallel,omitempty"`
}

// badRequestError is a request-validation failure: the client's fault,
// mapped to HTTP 400 with the message as the diagnostic.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// decodeJSON decodes one JSON document from an HTTP body, strictly: a
// size cap against oversized bodies, unknown fields rejected (a typo'd
// knob silently ignored would run the wrong experiment), and trailing
// garbage rejected.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	const maxBody = 1 << 20 // requests are small config documents
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data after the JSON document")
	}
	// Drain whatever the limiter allows so keep-alive connections reuse.
	io.Copy(io.Discard, dec.Buffered())
	return nil
}

// parseSize maps the wire size name to the bench preset ("" = small).
func parseSize(s string) (bench.Size, error) {
	if s == "" {
		return bench.SizeSmall, nil
	}
	size, err := bench.ParseSize(s)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return size, nil
}

// parseMode maps the wire mode name to the bench mode ("" = copy).
func parseMode(s string) (bench.Mode, error) {
	if s == "" {
		return bench.ModeCopy, nil
	}
	m, err := bench.ParseMode(s)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return m, nil
}

// validateFault parses an untrusted fault-plan string and proves the
// resulting degraded configurations are still self-consistent by running
// them through config.Validate — the request is rejected up front rather
// than poisoning a simulation (or a cache entry) with NaN-flavored
// hardware.
func validateFault(plan string) (config.FaultConfig, error) {
	fault, err := config.ParseFaults(plan)
	if err != nil {
		return config.FaultConfig{}, badRequest("fault: %v", err)
	}
	for _, sys := range []config.System{config.DiscreteGPU(), config.HeteroProcessor()} {
		sys.Faults = fault
		if err := sys.Validate(); err != nil {
			return config.FaultConfig{}, badRequest("fault plan %q yields an invalid %s system: %v", plan, sys.Kind, err)
		}
	}
	return fault, nil
}

// maxMs is the largest millisecond count a time.Duration can hold.
const maxMs = math.MaxInt64 / int64(time.Millisecond)

// nonNegativeMs converts a request's millisecond field to a duration,
// rejecting values the conversion would wrap.
func nonNegativeMs(name string, ms int64) (time.Duration, error) {
	switch {
	case ms < 0:
		return 0, badRequest("%s must be >= 0, got %d", name, ms)
	case ms > maxMs:
		return 0, badRequest("%s must be <= %d, got %d", name, maxMs, ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// knobs is a validated RunKnobs: the spec every run of the request
// starts from (size, budgets, stall, parallel), its injected faults and
// the request's deadline.
type knobs struct {
	spec     harness.Spec
	faults   config.FaultConfig
	deadline time.Duration
}

// resolveKnobs validates the per-run fields of a request.
func resolveKnobs(k *RunKnobs) (*knobs, error) {
	r := &knobs{}
	var err error
	if r.spec.Size, err = parseSize(k.Size); err != nil {
		return nil, err
	}
	if r.faults, err = validateFault(k.Fault); err != nil {
		return nil, err
	}
	r.spec.Budget.MaxEvents = k.MaxEvents
	if r.spec.Budget.Timeout, err = nonNegativeMs("timeout_ms", k.TimeoutMs); err != nil {
		return nil, err
	}
	if r.spec.Stall, err = nonNegativeMs("stall_ms", k.StallMs); err != nil {
		return nil, err
	}
	if r.deadline, err = nonNegativeMs("deadline_ms", k.DeadlineMs); err != nil {
		return nil, err
	}
	if k.Parallel < 0 {
		return nil, badRequest("parallel must be >= 0, got %d", k.Parallel)
	}
	r.spec.Parallel = k.Parallel
	return r, nil
}

// sweepParams is a validated SweepRequest, resolved to engine types.
type sweepParams struct {
	size        bench.Size
	opts        experiments.SweepOpts
	deadline    time.Duration
	jobs        int // requested concurrency = admission weight
	fingerprint string
}

// resolveSweep validates a SweepRequest against the registry and the
// config layer and resolves it to sweep options plus its fingerprint.
// maxJobs is the server's pool size (the clamp for jobs).
func resolveSweep(req *SweepRequest, maxJobs int) (*sweepParams, error) {
	for _, name := range req.Benchmarks {
		if _, ok := bench.Get(name); !ok {
			return nil, badRequest("unknown benchmark %q", name)
		}
	}
	k, err := resolveKnobs(&req.RunKnobs)
	if err != nil {
		return nil, err
	}
	if req.Jobs < 0 {
		return nil, badRequest("jobs must be >= 0, got %d", req.Jobs)
	}
	p := &sweepParams{size: k.spec.Size, deadline: k.deadline, jobs: min(max(req.Jobs, 1), maxJobs)}
	p.opts = experiments.SweepOpts{
		Budget:   k.spec.Budget,
		Fault:    k.faults,
		Jobs:     p.jobs,
		Parallel: k.spec.Parallel,
		Stall:    k.spec.Stall,
	}
	// An explicitly empty benchmark list means the same as an omitted
	// one: sweep everything. (A non-nil empty Only would match nothing.)
	if len(req.Benchmarks) > 0 {
		p.opts.Only = req.Benchmarks
	}
	// The fingerprint hashes the sweep's run keys, so jobs, parallel and
	// deadline stay out of it by the rule the run keys follow (results
	// are identical for every value).
	p.fingerprint = experiments.SweepFingerprint(p.size, p.opts)
	return p, nil
}

// runParams is a validated RunRequest.
type runParams struct {
	spec        harness.Spec
	deadline    time.Duration
	fingerprint string
}

// resolveRun validates a RunRequest and resolves it to a harness spec
// plus its fingerprint.
func resolveRun(req *RunRequest) (*runParams, error) {
	if req.Benchmark == "" {
		return nil, badRequest("benchmark is required")
	}
	b, ok := bench.Get(req.Benchmark)
	if !ok {
		return nil, badRequest("unknown benchmark %q", req.Benchmark)
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	if !b.Info().Supports(mode) {
		return nil, badRequest("benchmark %q does not support mode %s", req.Benchmark, mode)
	}
	k, err := resolveKnobs(&req.RunKnobs)
	if err != nil {
		return nil, err
	}
	machine := bench.ConfigFor(mode)
	machine.Faults = k.faults
	p := &runParams{spec: k.spec, deadline: k.deadline}
	p.spec.Bench, p.spec.Mode, p.spec.Machine = b, mode, &machine
	p.fingerprint = experiments.RunDocKey(p.spec)
	return p, nil
}
