// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository. Time is measured in integer picoseconds
// (Tick), which is fine enough to mix the 3.5GHz CPU, 700MHz GPU, and memory
// clock domains without accumulating rounding drift.
package sim

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Tick is a point in (or span of) simulated time, in picoseconds.
type Tick int64

// Convenient durations.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
	Second      Tick = 1000 * Millisecond
)

// Seconds converts a Tick span to floating-point seconds.
func (t Tick) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a Tick span to floating-point milliseconds.
func (t Tick) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros converts a Tick span to floating-point microseconds.
func (t Tick) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds builds a Tick from floating-point seconds.
func FromSeconds(s float64) Tick { return Tick(s * float64(Second)) }

type event struct {
	when Tick
	seq  uint64 // tie-break so same-time events run in schedule order
	fn   func()
}

// before orders events by (when, seq) — time first, schedule order within a
// time.
func (e event) before(o event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// eventHeap is a concrete 4-ary min-heap over event values. It replaces
// container/heap to eliminate the interface boxing allocation that
// Push(x any)/Pop() any forced on every scheduled event: events move
// by value and the backing array is reused across the run, so steady-state
// scheduling is allocation-free. The 4-ary shape halves the tree depth of a
// binary heap, trading slightly more comparisons per level for fewer
// cache-missing levels — the usual win for small fixed-size elements.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int     { return len(h.a) }
func (h *eventHeap) peek() *event { return &h.a[0] }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h.a[i].before(h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = event{} // drop the fn reference so the closure can be collected
	h.a = h.a[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.a)
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.a[c].before(h.a[min]) {
				min = c
			}
		}
		if !h.a[min].before(h.a[i]) {
			return
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}

// eventFIFO is the same-tick fast path: events scheduled for the current
// simulated time (zero-delay self-scheduling, the dominant pattern in warp
// replay and DMA pacing) bypass the heap entirely and run in insertion
// order from a reused ring. Correctness of the split relies on an
// invariant: anything in the FIFO was scheduled while now had its current
// value, so it carries a larger seq than any same-time event still in the
// heap (those were pushed when now was strictly smaller).
type eventFIFO struct {
	a    []func()
	head int
}

func (f *eventFIFO) len() int { return len(f.a) - f.head }

func (f *eventFIFO) push(fn func()) { f.a = append(f.a, fn) }

func (f *eventFIFO) pop() func() {
	fn := f.a[f.head]
	f.a[f.head] = nil // release the closure
	f.head++
	if f.head == len(f.a) {
		f.a = f.a[:0] // drained: rewind, keeping capacity
		f.head = 0
	}
	return fn
}

// Budget bounds one simulation run. A zero field means that dimension is
// unlimited. Budgets are how the fault-tolerant harness keeps a runaway or
// hung run (livelocked worklist, pathological input) from eating the whole
// sweep.
type Budget struct {
	// MaxEvents caps how many events may execute after SetBudget.
	MaxEvents uint64
	// WallClock caps real elapsed time from the SetBudget call.
	WallClock time.Duration
	// Ctx, when non-nil, is polled at the engine's periodic check interval
	// (every pulseMask+1 events): once it is canceled, the next check
	// panics with an *InterruptError of ReasonCanceled. This is how sweep
	// shutdown reaches arbitrarily nested benchmark code that has no error
	// returns, exactly like the event/wall-clock budgets.
	Ctx context.Context
}

// BudgetError reports a run terminated for exceeding its Budget. The engine
// delivers it as a typed panic — the only way to unwind arbitrarily nested
// benchmark code that has no error returns — and harness.Run recovers it
// into a structured run error; it never escapes to crash the process when
// runs go through the harness.
type BudgetError struct {
	Events    uint64 // events executed when the budget tripped
	MaxEvents uint64 // configured event cap (0 = unlimited)
	Elapsed   time.Duration
	WallClock time.Duration // configured wall-clock cap (0 = unlimited)
	SimTime   Tick
}

// Error describes which budget tripped and where the run was.
func (e *BudgetError) Error() string {
	if e.MaxEvents > 0 && e.Events >= e.MaxEvents {
		return fmt.Sprintf("sim: event budget exceeded (%d events, limit %d) at sim time %.3f ms",
			e.Events, e.MaxEvents, e.SimTime.Millis())
	}
	return fmt.Sprintf("sim: wall-clock budget exceeded (%v, limit %v) after %d events at sim time %.3f ms",
		e.Elapsed.Round(time.Millisecond), e.WallClock, e.Events, e.SimTime.Millis())
}

// ExceededEvents reports whether the event cap (rather than the wall clock)
// is what tripped.
func (e *BudgetError) ExceededEvents() bool {
	return e.MaxEvents > 0 && e.Events >= e.MaxEvents
}

// InterruptReason says why a run was interrupted from outside the
// simulation loop.
type InterruptReason int

const (
	// ReasonCanceled is a context cancellation (operator shutdown, sweep
	// abort).
	ReasonCanceled InterruptReason = iota
	// ReasonStalled is a stall-watchdog kill: the engine stopped advancing
	// simulated time past its deadline.
	ReasonStalled
)

// String names the interrupt reason.
func (r InterruptReason) String() string {
	if r == ReasonStalled {
		return "stalled"
	}
	return "canceled"
}

// InterruptError reports a run terminated by an external request — a
// canceled context or a stall-watchdog kill — rather than by its own
// budget. Like BudgetError it is delivered as a typed panic (the only way
// to unwind nested benchmark code with no error returns) and recovered by
// harness.Run into a structured run error.
type InterruptError struct {
	Reason  InterruptReason
	Msg     string // what requested the interrupt
	Events  uint64 // events executed when the interrupt landed
	SimTime Tick
}

// Error describes the interrupt and where the run was.
func (e *InterruptError) Error() string {
	return fmt.Sprintf("sim: run %s (%s) after %d events at sim time %.3f ms",
		e.Reason, e.Msg, e.Events, e.SimTime.Millis())
}

// intrRequest is a pending Interrupt call, stored atomically so any
// goroutine (signal handler, stall watchdog) can post one.
type intrRequest struct {
	reason InterruptReason
	msg    string
}

// wallCheckMask throttles time.Now calls: the wall clock is polled once
// every 4096 events, cheap against event dispatch cost.
const wallCheckMask = 1<<12 - 1

// pulseMask throttles the engine's periodic liveness work — heartbeat
// publication and interrupt/cancellation checks — to once every 4096
// events, the same cadence as the wall-clock poll.
const pulseMask = 1<<12 - 1

// Engine is a single-threaded discrete-event scheduler. Events scheduled for
// the same Tick run in the order they were scheduled.
//
// Internally the pending set is split in two: a FIFO holding events
// scheduled for the current time (see eventFIFO) and a 4-ary min-heap for
// everything later. Time only advances off a heap pop, which can happen
// only when the FIFO is empty — so every FIFO entry runs at exactly the
// now it was scheduled at.
type Engine struct {
	now    Tick
	seq    uint64
	events eventHeap
	fifo   eventFIFO
	nRun   uint64

	budget     Budget
	budgetBase uint64 // nRun when the budget was armed
	wallStart  time.Time

	// Heartbeat: (events, sim time) published every pulseMask+1 events so
	// watchdog goroutines can observe progress without racing the
	// single-threaded simulation loop.
	hbEvents atomic.Uint64
	hbNow    atomic.Int64
	// intr holds a pending external interrupt request; the loop notices it
	// at the next pulse and panics with an *InterruptError.
	intr atomic.Pointer[intrRequest]
}

// NewEngine returns an engine with simulated time at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// EventsRun reports how many events have executed, for test and perf checks.
func (e *Engine) EventsRun() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.events.len() + e.fifo.len() }

// Schedule runs fn after delay picoseconds of simulated time. A negative
// delay is treated as zero (run at the current time, after already-queued
// same-time events).
func (e *Engine) Schedule(delay Tick, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. Times in the past are clamped to now.
func (e *Engine) At(t Tick, fn func()) {
	if t <= e.now {
		// Same-tick fast path: runs at now, after all queued same-time
		// events, in insertion order — no heap traffic.
		e.fifo.push(fn)
		return
	}
	e.seq++
	e.events.push(event{when: t, seq: e.seq, fn: fn})
}

// SetBudget arms (or, with the zero Budget, disarms) run budgets. The wall
// clock starts counting from this call; the event count from the current
// EventsRun. When a budget is exceeded, Step panics with a *BudgetError —
// see that type for why a typed panic is the delivery mechanism.
func (e *Engine) SetBudget(b Budget) {
	e.budget = b
	e.budgetBase = e.nRun
	if b.WallClock > 0 {
		e.wallStart = time.Now()
	}
}

// Interrupt requests that the run be killed: the next periodic check in
// Step panics with an *InterruptError. Safe to call from any goroutine
// (it is how the stall watchdog and hard-abort paths reach a running
// engine); the first request wins and later ones are ignored. The engine
// notices within pulseMask+1 events — an engine that is not stepping at
// all (wedged inside host code between events) cannot be interrupted,
// just as it cannot notice a wall-clock budget.
func (e *Engine) Interrupt(reason InterruptReason, msg string) {
	e.intr.CompareAndSwap(nil, &intrRequest{reason: reason, msg: msg})
}

// Progress reports the engine's last published heartbeat: how many events
// have run and the simulated time reached. It is safe to call from other
// goroutines and may lag the live values by up to pulseMask events — it
// exists for stall watchdogs, not for exact accounting (use EventsRun/Now
// from the simulation goroutine for that).
func (e *Engine) Progress() (events uint64, now Tick) {
	return e.hbEvents.Load(), Tick(e.hbNow.Load())
}

// pulse is the periodic liveness check run every pulseMask+1 events: it
// publishes the heartbeat and panics with an *InterruptError when an
// external interrupt or context cancellation is pending.
func (e *Engine) pulse() {
	e.hbEvents.Store(e.nRun)
	e.hbNow.Store(int64(e.now))
	if req := e.intr.Load(); req != nil {
		panic(&InterruptError{Reason: req.reason, Msg: req.msg, Events: e.nRun, SimTime: e.now})
	}
	if ctx := e.budget.Ctx; ctx != nil && ctx.Err() != nil {
		panic(&InterruptError{Reason: ReasonCanceled, Msg: ctx.Err().Error(), Events: e.nRun, SimTime: e.now})
	}
}

// checkBudget panics with a *BudgetError if a budget is exceeded.
func (e *Engine) checkBudget() {
	used := e.nRun - e.budgetBase
	if e.budget.MaxEvents > 0 && used >= e.budget.MaxEvents {
		panic(&BudgetError{Events: used, MaxEvents: e.budget.MaxEvents, SimTime: e.now})
	}
	if e.budget.WallClock > 0 && used&wallCheckMask == 0 {
		if elapsed := time.Since(e.wallStart); elapsed > e.budget.WallClock {
			panic(&BudgetError{Events: used, Elapsed: elapsed, WallClock: e.budget.WallClock, SimTime: e.now})
		}
	}
}

// Step executes the next event, if any, advancing time to it. It reports
// whether an event ran. With a Budget armed, an over-budget Step panics
// with a *BudgetError instead of running the event.
func (e *Engine) Step() bool {
	fifoN := e.fifo.len()
	if fifoN == 0 && e.events.len() == 0 {
		return false
	}
	if e.nRun&pulseMask == 0 {
		e.pulse()
	}
	if e.budget != (Budget{}) {
		e.checkBudget()
	}
	// Heap events at the current time predate every FIFO entry (they were
	// pushed while now was strictly smaller, so they carry lower seqs) and
	// must run first to preserve schedule order.
	if fifoN == 0 || (e.events.len() > 0 && e.events.peek().when == e.now) {
		ev := e.events.pop()
		e.now = ev.when
		e.nRun++
		ev.fn()
		return true
	}
	fn := e.fifo.pop()
	e.nRun++
	fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances time to t.
func (e *Engine) RunUntil(t Tick) {
	for {
		// FIFO entries are timestamped now; heap entries at their own when.
		if e.fifo.len() > 0 {
			if e.now > t {
				break
			}
		} else if e.events.len() == 0 || e.events.peek().when > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
