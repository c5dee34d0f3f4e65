// Package harness is the fault-tolerance layer between the benchmark
// framework and the simulator. The paper's evaluation is a 46-benchmark,
// multi-mode sweep; without this layer any aborted run — a deadlocked
// dependency handle, a buffer overrun, a livelocked worklist — would kill
// the whole sweep and discard every completed result. harness.Run executes
// one benchmark run in isolation: it recovers aborts into a structured
// *RunError, enforces event and wall-clock budgets through the simulation
// engine, and retries budget-exceeded runs at the next-smaller input size.
// A Spec names the machine its run simulates: the mode's stock machine,
// or one with a design knob moved or a hardware fault injected, which is
// how the ablations and the fault-injection experiments vary it.
//
// Run is safe for concurrent use: every run builds its own isolated
// device.System, so sweeps dispatch independent runs onto a worker pool
// (internal/sweep) without synchronization.
package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Kind classifies why a run failed.
type Kind int

const (
	// KindPanic is an unclassified panic out of simulator or benchmark code.
	KindPanic Kind = iota
	// KindBudget is an exceeded max-event budget.
	KindBudget
	// KindTimeout is an exceeded wall-clock budget.
	KindTimeout
	// KindDeadlock is a Wait on an operation that can never complete.
	KindDeadlock
	// KindUsage is invalid input to the device API (bad config, bad kernel
	// geometry, overrunning copy).
	KindUsage
	// KindCanceled is a run killed by context cancellation (operator
	// shutdown, sweep abort). Canceled runs are artifacts of the shutdown,
	// not results: the run store skips them so a resumed sweep re-runs
	// them from scratch.
	KindCanceled
	// KindStalled is a run killed by the stall watchdog: its engine
	// stopped advancing simulated time past the configured deadline (a
	// livelocked worklist churning events at one tick, for example).
	KindStalled
)

// String names the failure kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindBudget:
		return "budget-exceeded"
	case KindTimeout:
		return "timeout"
	case KindDeadlock:
		return "deadlock"
	case KindUsage:
		return "usage-error"
	case KindCanceled:
		return "canceled"
	case KindStalled:
		return "stalled"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// RunError is one failed benchmark run, with enough context to diagnose it
// after the sweep: what ran, how far it got in simulated time and events,
// and what killed it.
type RunError struct {
	Benchmark string
	Mode      bench.Mode
	Size      bench.Size // size of the failing attempt
	Kind      Kind
	Msg       string   // recovered message
	SimTime   sim.Tick // simulated time reached before the failure
	Events    uint64   // engine events executed before the failure
	Stack     []byte   // stack of the recovery point (KindPanic only)
	Attempt   int      // 1-based attempt number that produced this error
	// Wall is how long the failing attempt ran in wall-clock time — the
	// per-attempt cost accounting a sweep post-mortem needs (a 2ms usage
	// error and a 60s timeout are very different failures).
	Wall time.Duration
	// TraceTail is the trailing window of trace events the run emitted
	// before dying — the last thing the machine was doing. Populated from
	// Spec.Trace when set, else from the per-attempt ring the harness
	// always records.
	TraceTail []trace.Event
}

// Error summarizes the failure on one line.
func (e *RunError) Error() string {
	return fmt.Sprintf("%s (%s, %s): %s: %s [attempt %d, %.3f ms sim, %d events]",
		e.Benchmark, e.Mode, e.Size, e.Kind, e.Msg, e.Attempt, e.SimTime.Millis(), e.Events)
}

// Budget bounds one run; zero fields are unlimited. MaxEvents counts
// deterministic simulation events and is the budget to use when comparing
// sweeps across worker counts; Timeout is wall-clock, so a run sharing the
// machine with other sweep workers burns it faster than a run alone.
type Budget struct {
	MaxEvents uint64
	Timeout   time.Duration
}

// maxAttempts caps a run's attempts: the run plus one retry at the
// next-smaller size. Only budget and timeout failures retry, and only
// when a smaller size exists to degrade to.
const maxAttempts = 2

// Spec describes one benchmark run.
type Spec struct {
	Bench  bench.Benchmark
	Mode   bench.Mode
	Size   bench.Size
	Budget Budget
	// Ctx, when non-nil, cancels the run: the engine polls it at its
	// periodic check interval and the run comes back as a KindCanceled
	// RunError (with its trace tail, like every other abort). Cancellation
	// also suppresses retries — a canceled budget failure is shutdown, not
	// a result.
	Ctx context.Context
	// Stall arms the per-run stall watchdog: a goroutine samples the
	// engine's heartbeat and kills the run (KindStalled) if simulated time
	// stops advancing for this long while events churn — a livelocked
	// worklist, for example. Zero disables the watchdog. Choose a window
	// much larger than any legitimate burst of same-tick events; like the
	// wall-clock budget, the watchdog cannot reach a run wedged in host
	// code between engine events.
	Stall time.Duration
	// Machine, when non-nil, is the machine the run simulates; nil means
	// the mode's stock machine, bench.ConfigFor(Mode). Ablations move a
	// design knob on it, fault injection fills in its Faults.
	Machine *config.System
	// Trace, when non-nil, receives every trace event the run's hardware
	// models emit (all attempts record into the same sink, separated by
	// harness lifecycle instants). When nil, the harness still records a
	// small private ring per attempt so a failure ships its trailing
	// events in RunError.TraceTail.
	Trace *trace.Recorder
	// OnRetry observes each retry decision: the error that triggered it
	// and the degraded size the next attempt will run at. Used for live
	// sweep progress.
	OnRetry func(next bench.Size, err *RunError)
	// RequestID, when non-empty, is the correlation ID of the request this
	// run serves. It is stamped as a request_id arg on the harness's
	// lifecycle trace instants (attempt start, retry, failure), so a
	// Perfetto trace can be tied back to the access log line of the
	// request that produced it. It never affects results.
	RequestID string
	// Parallel is the intra-run worker count (timing thread included):
	// 0 or 1 runs the serial engine, 2+ pipelines CTA generation and
	// compilation on one worker through device.WithParallel. Like a sweep's jobs
	// count it is a scheduling knob, excluded from run keys: results,
	// counters, traces, and run records are byte-identical for
	// every value.
	Parallel int
}

// Config is the machine the run simulates: *Machine, or the mode's
// stock machine when Machine is nil.
func (s *Spec) Config() config.System {
	if s.Machine != nil {
		return *s.Machine
	}
	return bench.ConfigFor(s.Mode)
}

// lifecycleArgs builds the trace args for a harness lifecycle instant:
// just the correlation ID when one is set, nil (no allocation) otherwise.
func (s *Spec) lifecycleArgs() []trace.Arg {
	if s.RequestID == "" {
		return nil
	}
	return []trace.Arg{{Key: "request_id", Val: s.RequestID}}
}

// tailLen is how many trailing trace events a RunError carries, and the
// ring size of the harness's private per-attempt recorder.
const tailLen = 32

// Outcome is the result of harness.Run: either a Report or a RunError,
// plus how the run got there.
//
// Its JSON form is the run record the store keeps per completed run, so a
// later sweep or request rebuilds the outcome exactly and renders
// byte-identical reports. Every field but Sys round-trips: a simulated
// machine cannot (and need not) be serialized, so a decoded outcome
// carries a nil Sys and consumers that inspect live counters must guard
// for it. The round trip is lossless because core.Report encodes exactly
// (integer Ticks, shortest-form floats), which is what lets a resumed
// sweep's stdout match an uninterrupted sweep's byte for byte. The
// human-oriented OutcomeJSON form is lossy (millisecond floats) and is
// not used for records.
type Outcome struct {
	Report *core.Report `json:"report,omitempty"`
	Err    *RunError    `json:"err,omitempty"` // nil on success
	// Sys is the simulated machine of the final attempt (for counter
	// inspection); nil if system construction itself failed or the
	// outcome was decoded from a run record.
	Sys      *device.System `json:"-"`
	Attempts int            `json:"attempts"`
	Size     bench.Size     `json:"size"`               // size that actually ran (may be degraded)
	Degraded bool           `json:"degraded,omitempty"` // true when Size is smaller than requested
	SimTime  sim.Tick       `json:"sim_time"`
	Events   uint64         `json:"events"`
	// Wall is the total wall-clock time across all attempts, as integer
	// nanoseconds in JSON; each failed attempt's own duration is on its
	// AttemptErrors entry.
	Wall time.Duration `json:"wall"`
	// AttemptErrors records every failed attempt in order, so a degraded
	// success still reports what the earlier attempts hit. On an overall
	// failure the last entry equals *Err.
	AttemptErrors []RunError `json:"attempt_errors,omitempty"`
	// TraceEvents is how many events Spec.Trace holds after the run (zero
	// when the run was untraced).
	TraceEvents int `json:"trace_events,omitempty"`
}

// Run executes one benchmark run fault-tolerantly. It never panics and
// never hangs (given a budget): every abort comes back as Outcome.Err.
func Run(spec Spec) *Outcome {
	mRunsStarted.Inc()
	out := run(spec)
	mRunEvents.Add(out.Events)
	if out.Wall > 0 && out.Events > 0 {
		mEventsPerSec.Observe(float64(out.Events) / out.Wall.Seconds())
	}
	if out.Attempts > 1 {
		mRunsRetried.Add(uint64(out.Attempts - 1))
	}
	if out.Err == nil {
		mRunsCompleted.Inc()
	} else {
		failedCounter(out.Err.Kind).Inc()
	}
	return out
}

// run is Run without the lifecycle metrics.
func run(spec Spec) *Outcome {
	size := spec.Size
	var attemptErrs []RunError
	var totalWall time.Duration
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		out := runOnce(spec, size, attempt)
		wall := time.Since(t0)
		totalWall += wall
		out.Attempts = attempt
		out.Size = size
		out.Degraded = size != spec.Size
		out.TraceEvents = spec.Trace.Len()
		out.Wall = totalWall
		if out.Err != nil {
			out.Err.Wall = wall
			attemptErrs = append(attemptErrs, *out.Err)
		}
		out.AttemptErrors = attemptErrs
		if out.Err == nil {
			return out
		}
		// Only resource exhaustion is worth retrying, and only degraded:
		// the simulator is deterministic, so the same input would exhaust
		// the same budget again. A canceled context means the sweep is
		// shutting down — retrying would fight the shutdown.
		smaller, canDegrade := size.Smaller()
		retryable := out.Err.Kind == KindBudget || out.Err.Kind == KindTimeout
		if spec.Ctx != nil && spec.Ctx.Err() != nil {
			retryable = false
		}
		if attempt >= maxAttempts || !retryable || !canDegrade {
			return out
		}
		spec.Trace.Instant(stats.CPU, "harness", "harness",
			fmt.Sprintf("retry at %s after %s", smaller, out.Err.Kind), out.Err.SimTime,
			spec.lifecycleArgs()...)
		if spec.OnRetry != nil {
			spec.OnRetry(smaller, out.Err)
		}
		// No delay before the retry: the simulator is deterministic, so
		// waiting cannot change its outcome and would only idle a worker.
		size = smaller
	}
}

// runOnce executes a single attempt, recovering any abort into a RunError.
func runOnce(spec Spec, size bench.Size, attempt int) (out *Outcome) {
	out = &Outcome{}
	info := spec.Bench.Info()
	// Record into the caller's sink when tracing; otherwise into a small
	// private ring so a failure still ships its trailing events.
	rec := spec.Trace
	if rec == nil {
		rec = trace.NewRing(tailLen)
	}
	fail := func(kind Kind, msg string, stack []byte) {
		var simT sim.Tick
		var ev uint64
		if out.Sys != nil {
			simT, ev = out.Sys.Eng.Now(), out.Sys.Eng.EventsRun()
		}
		rec.Instant(stats.CPU, "harness", "harness", "run failed: "+kind.String(), simT,
			spec.lifecycleArgs()...)
		out.Err = &RunError{
			Benchmark: info.FullName(), Mode: spec.Mode, Size: size,
			Kind: kind, Msg: msg, SimTime: simT, Events: ev,
			Stack: stack, Attempt: attempt,
			TraceTail: rec.Tail(tailLen),
		}
	}
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case *sim.BudgetError:
				kind := KindTimeout
				if v.ExceededEvents() {
					kind = KindBudget
				}
				fail(kind, v.Error(), nil)
			case *sim.InterruptError:
				kind := KindCanceled
				if v.Reason == sim.ReasonStalled {
					kind = KindStalled
				}
				fail(kind, v.Error(), nil)
			case *device.DeadlockError:
				fail(KindDeadlock, v.Error(), nil)
			case *device.UsageError:
				fail(KindUsage, v.Error(), nil)
			case error:
				fail(KindPanic, v.Error(), debug.Stack())
			default:
				fail(KindPanic, fmt.Sprint(v), debug.Stack())
			}
		}
		if out.Sys != nil {
			out.SimTime, out.Events = out.Sys.Eng.Now(), out.Sys.Eng.EventsRun()
		}
	}()

	if spec.Ctx != nil && spec.Ctx.Err() != nil {
		// Don't even build the system: the sweep is shutting down.
		fail(KindCanceled, "run canceled before start: "+spec.Ctx.Err().Error(), nil)
		return out
	}
	if !info.Supports(spec.Mode) {
		fail(KindUsage, fmt.Sprintf("benchmark does not support mode %s", spec.Mode), nil)
		return out
	}
	s, err := device.NewSystemErr(spec.Config(), device.WithTrace(rec), device.WithParallel(spec.Parallel))
	if err != nil {
		fail(KindUsage, err.Error(), nil)
		return out
	}
	out.Sys = s
	// Quiesce the parallel engine's workers however the attempt ends —
	// budget trip, interrupt, panic — so aborted runs cannot leak
	// goroutines or leave workers blocked on hand-offs.
	defer s.Release()
	rec.Instant(stats.CPU, "harness", "harness",
		fmt.Sprintf("attempt %d start (%s)", attempt, size), s.Eng.Now(),
		spec.lifecycleArgs()...)
	s.Eng.SetBudget(sim.Budget{MaxEvents: spec.Budget.MaxEvents, WallClock: spec.Budget.Timeout, Ctx: spec.Ctx})
	if spec.Stall > 0 {
		stop := watchStall(s.Eng, spec.Stall)
		defer stop()
	}
	spec.Bench.Run(s, spec.Mode, size)
	if start, end := s.Col.ROI(); end <= start {
		fail(KindUsage, "run recorded no region of interest", nil)
		return out
	}
	out.Report = s.Report(info.FullName(), spec.Mode.String())
	return out
}
