package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one structured progress notification out of a Tracker — the
// machine-readable twin of the stderr progress lines. The hetsimd server
// streams these to HTTP clients (SSE or JSON lines) while a sweep
// executes on the pool.
type Event struct {
	// Kind is the lifecycle step: "start", "retry", "done", "failed",
	// "replay", or "summary".
	Kind string `json:"event"`
	// Name identifies the run ("suite/bench mode"); empty on summary.
	Name string `json:"name,omitempty"`
	// Detail elaborates: the retry reason, the finish summary, the
	// failure diagnostic, or the final tally.
	Detail string `json:"detail,omitempty"`
	// Finished and Total are the [k/n] progress counters at emit time.
	Finished int `json:"finished"`
	Total    int `json:"total"`
	// RequestID is the correlation ID of the request this sweep serves,
	// stamped on every event (SetRequestID). Empty for CLI sweeps.
	RequestID string `json:"request_id,omitempty"`
}

// Tracker emits live per-run progress while a sweep executes on the
// worker pool: human-oriented lines to w (stderr in the commands; nil
// suppresses them) and structured Events to the optional sink. It never
// touches the sweep's primary output, so figures stay byte-identical with
// progress on or off. All methods are safe for concurrent use by pool
// workers; a nil Tracker ignores every call. The sink is invoked under
// the tracker's lock — events arrive serialized, in order — so a sink
// writing to a network stream needs no locking of its own but must not
// call back into the Tracker.
type Tracker struct {
	mu        sync.Mutex
	w         io.Writer
	sink      func(Event)
	total     int
	started   int
	finished  int
	failed    int
	retried   int
	replayed  int
	requestID string
	t0        time.Time
}

// NewTracker builds a tracker writing lines to w. total may be zero if
// the run count is not known yet (SetTotal can set it later).
func NewTracker(w io.Writer, total int) *Tracker {
	return &Tracker{w: w, total: total, t0: time.Now()}
}

// NewEventTracker builds a tracker that emits only structured Events to
// sink (no text lines) — the form the hetsimd progress stream uses.
func NewEventTracker(sink func(Event)) *Tracker {
	return &Tracker{sink: sink, t0: time.Now()}
}

// SetTotal sets the expected run count for the [k/n] counters.
func (p *Tracker) SetTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total = n
	p.mu.Unlock()
}

// SetRequestID stamps every subsequent Event with the correlation ID of
// the request the sweep serves, so a client tailing an SSE stream can tie
// the events back to its own X-Request-Id.
func (p *Tracker) SetRequestID(id string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.requestID = id
	p.mu.Unlock()
}

func (p *Tracker) line(format string, args ...any) {
	if p.w == nil {
		return
	}
	fmt.Fprintf(p.w, "[%7.1fs] "+format+"\n",
		append([]any{time.Since(p.t0).Seconds()}, args...)...)
}

func (p *Tracker) emit(kind, name, detail string) {
	if p.sink == nil {
		return
	}
	p.sink(Event{Kind: kind, Name: name, Detail: detail, Finished: p.finished, Total: p.total, RequestID: p.requestID})
}

// Start logs a run beginning.
func (p *Tracker) Start(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.started++
	p.line("start  %-40s (%d/%d)", name, p.started, p.total)
	p.emit("start", name, "")
}

// Retry logs a run retrying at a degraded size after a budget failure.
func (p *Tracker) Retry(name, why string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retried++
	p.line("retry  %-40s %s", name, why)
	p.emit("retry", name, why)
}

// Finish logs a run completing; detail summarizes the outcome (sim time on
// success, the failure kind otherwise).
func (p *Tracker) Finish(name string, ok bool, detail string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finished++
	verb := "done  "
	kind := "done"
	if !ok {
		verb = "FAILED"
		kind = "failed"
		p.failed++
	}
	p.line("%s %-40s (%d/%d) %s", verb, name, p.finished, p.total, detail)
	p.emit(kind, name, detail)
}

// Replay logs a run reused from the run store instead of executed; it
// counts toward the finished tally.
func (p *Tracker) Replay(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finished++
	p.replayed++
	p.line("replay %-40s (%d/%d) from store", name, p.finished, p.total)
	p.emit("replay", name, "from store")
}

// Summary logs the final tally.
func (p *Tracker) Summary() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	detail := fmt.Sprintf("%d runs, %d failed, %d retried, %d replayed", p.finished, p.failed, p.retried, p.replayed)
	p.line("sweep complete: %s", detail)
	p.emit("summary", "", detail)
}
