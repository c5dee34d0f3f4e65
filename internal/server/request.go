package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/store"
)

// SweepRequest is the JSON body of POST /v1/sweep: which benchmarks to
// sweep and under what budgets. Everything is optional; the zero request
// sweeps every registered benchmark at the small size with no budgets.
// Fields that change simulation results (benchmarks, size, budgets, fault
// plan, stall) are part of the request fingerprint and of every run's
// key; fields that only change scheduling (jobs, parallel, backoff,
// jitter) or request lifetime (deadline) are not, so the same experiment
// always maps to the same stored document and runs.
type SweepRequest struct {
	// Benchmarks restricts the sweep to these full names ("suite/name");
	// empty sweeps every registered benchmark.
	Benchmarks []string `json:"benchmarks,omitempty"`
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
	// Jobs is how many simulations of this request may run concurrently
	// (its admission weight). 0 and 1 mean serial; values above the
	// server's pool size are clamped to it.
	Jobs int `json:"jobs,omitempty"`
	// Parallel is each run's intra-run parallelism (harness.Spec.Parallel).
	// 0 and 1 simulate serially; 2 and up pipeline trace generation on one
	// worker inside every run. Results are
	// byte-identical for every value, so — like jobs — it is excluded
	// from every key.
	Parallel int `json:"parallel,omitempty"`
	// BackoffMs and Jitter space retry attempts (see harness.Spec);
	// timing-only, so they are excluded from every key.
	BackoffMs int64   `json:"backoff_ms,omitempty"`
	Jitter    float64 `json:"jitter,omitempty"`
}

// RunRequest is the JSON body of POST /v1/run: one benchmark, one mode.
type RunRequest struct {
	// Benchmark is the full "suite/name" to run. Required.
	Benchmark string `json:"benchmark"`
	// Mode is "copy" (default), "limited-copy", "async-streams", or
	// "parallel-chunked".
	Mode string `json:"mode,omitempty"`
	// The remaining knobs mirror SweepRequest.
	Size       string  `json:"size,omitempty"`
	MaxEvents  uint64  `json:"max_events,omitempty"`
	TimeoutMs  int64   `json:"timeout_ms,omitempty"`
	StallMs    int64   `json:"stall_ms,omitempty"`
	Fault      string  `json:"fault,omitempty"`
	DeadlineMs int64   `json:"deadline_ms,omitempty"`
	Parallel   int     `json:"parallel,omitempty"`
	BackoffMs  int64   `json:"backoff_ms,omitempty"`
	Jitter     float64 `json:"jitter,omitempty"`
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

// parseSize maps the wire size name to the bench preset.
func parseSize(s string) (bench.Size, error) {
	switch s {
	case "", "small":
		return bench.SizeSmall, nil
	case "medium":
		return bench.SizeMedium, nil
	}
	return 0, badRequest("unknown size %q (want small or medium)", s)
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
func validateFault(plan string) (*harness.FaultPlan, error) {
	fault, err := harness.ParseFaultPlan(plan)
	if err != nil {
		return nil, badRequest("fault: %v", err)
	}
	for _, sys := range []config.System{config.DiscreteGPU(), config.HeteroProcessor()} {
		fault.Apply(&sys)
		if err := sys.Validate(); err != nil {
			return nil, badRequest("fault plan %q yields an invalid %s system: %v", plan, sys.Kind, err)
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
	p := &sweepParams{}
	var err error
	if p.size, err = parseSize(req.Size); err != nil {
		return nil, err
	}
	for _, name := range req.Benchmarks {
		if _, ok := bench.Get(name); !ok {
			return nil, badRequest("unknown benchmark %q", name)
		}
	}
	fault, err := validateFault(req.Fault)
	if err != nil {
		return nil, err
	}
	timeout, err := nonNegativeMs("timeout_ms", req.TimeoutMs)
	if err != nil {
		return nil, err
	}
	stall, err := nonNegativeMs("stall_ms", req.StallMs)
	if err != nil {
		return nil, err
	}
	if p.deadline, err = nonNegativeMs("deadline_ms", req.DeadlineMs); err != nil {
		return nil, err
	}
	backoff, err := nonNegativeMs("backoff_ms", req.BackoffMs)
	if err != nil {
		return nil, err
	}
	if req.Jitter < 0 || req.Jitter > 1 {
		return nil, badRequest("jitter must be in [0,1], got %v", req.Jitter)
	}
	if req.Jobs < 0 {
		return nil, badRequest("jobs must be >= 0, got %d", req.Jobs)
	}
	if req.Parallel < 0 {
		return nil, badRequest("parallel must be >= 0, got %d", req.Parallel)
	}
	p.jobs = req.Jobs
	if p.jobs < 1 {
		p.jobs = 1
	}
	if p.jobs > maxJobs {
		p.jobs = maxJobs
	}
	p.opts = experiments.SweepOpts{
		Budget:   harness.Budget{MaxEvents: req.MaxEvents, Timeout: timeout},
		Fault:    fault,
		Jobs:     p.jobs,
		Parallel: req.Parallel,
		Stall:    stall,
	}
	// An explicitly empty benchmark list means the same as an omitted
	// one: sweep everything. (A non-nil empty Only would match nothing.)
	if len(req.Benchmarks) > 0 {
		p.opts.Only = req.Benchmarks
	}
	if backoff > 0 {
		p.opts.PerRun = func(spec *harness.Spec) {
			spec.Backoff = backoff
			spec.Jitter = req.Jitter
		}
	}
	// The fingerprint covers exactly what determines results; jobs,
	// parallel, deadline, and retry spacing are excluded by the same rule
	// the run keys follow (results are identical for every value).
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
	size, err := parseSize(req.Size)
	if err != nil {
		return nil, err
	}
	fault, err := validateFault(req.Fault)
	if err != nil {
		return nil, err
	}
	timeout, err := nonNegativeMs("timeout_ms", req.TimeoutMs)
	if err != nil {
		return nil, err
	}
	stall, err := nonNegativeMs("stall_ms", req.StallMs)
	if err != nil {
		return nil, err
	}
	deadline, err := nonNegativeMs("deadline_ms", req.DeadlineMs)
	if err != nil {
		return nil, err
	}
	backoff, err := nonNegativeMs("backoff_ms", req.BackoffMs)
	if err != nil {
		return nil, err
	}
	if req.Jitter < 0 || req.Jitter > 1 {
		return nil, badRequest("jitter must be in [0,1], got %v", req.Jitter)
	}
	if req.Parallel < 0 {
		return nil, badRequest("parallel must be >= 0, got %d", req.Parallel)
	}
	p := &runParams{
		spec: harness.Spec{
			Bench: b, Mode: mode, Size: size,
			Budget:   harness.Budget{MaxEvents: req.MaxEvents, Timeout: timeout},
			Fault:    fault,
			Stall:    stall,
			Parallel: req.Parallel,
			Backoff:  backoff,
			Jitter:   req.Jitter,
		},
		deadline: deadline,
	}
	p.fingerprint = runFingerprint(req.Benchmark, mode, size, fault, p.spec.Budget, stall)
	return p, nil
}

// runFingerprint is the key of a single run's response document. It
// hashes the same result-determining inputs as the run's record key
// (store.RunKey) under a different kind label and without the key prefix,
// so the document and the record it is built from never share a key.
func runFingerprint(benchName string, mode bench.Mode, size bench.Size,
	fault *harness.FaultPlan, budget harness.Budget, stall time.Duration) string {
	var fp store.Fingerprint
	fp.Add("version", store.Version)
	fp.Add("kind", "run")
	fp.AddSystems()
	fp.Add("bench", benchName)
	fp.Add("mode", mode.String())
	fp.Add("size", size.String())
	fp.Add("fault", fault.String())
	fp.Add("max_events", strconv.FormatUint(budget.MaxEvents, 10))
	fp.Add("timeout", budget.Timeout.String())
	fp.Add("stall", stall.String())
	return fp.Sum()
}
