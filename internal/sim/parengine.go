// Intra-run parallelism for the discrete-event engine.
//
// The obvious conservative-PDES decomposition — one event heap per
// component, advancing independently inside a lookahead window — is
// unsound here: the timing models interact through synchronous analytic
// calls (a warp's store walks L1→L2→fabric→DRAM inside one event;
// BusyModel.Claim order is event execution order), so nearly every event
// reads shared timing state. What CAN leave the timing thread without
// perturbing the (when, seq) total order is the work that produces
// events' inputs rather than consuming simulated time: functional trace
// generation (running kernel code to record lane traces) and compiling
// those traces into warp programs (SIMT merge, address coalescing).
//
// ParEngine runs that work on one generation worker. Like a double- or
// triple-buffered pipeline, correctness rests on order, not on a timing
// window: jobs are submitted at launch events on the timing thread, the
// worker runs them strictly in submission order, and each Pipeline hands
// its results to the timing thread through one bounded FIFO. The timing
// thread therefore consumes exactly what the serial engine would have
// built, in the order it would have built it — so results, counters,
// traces, and run records stay byte-identical to the serial engine. A
// workload that breaks the submission-order guarantee (persistent
// kernels, whose batch dispatch interleaves timing-dependently) stops
// pipelining and says so in sim_engine_serial_fallback_total.
package sim

import (
	"sync"
	"time"
)

// ParEngine owns the generation worker of one parallel run. The worker
// executes submitted jobs strictly in submission order, preserving the
// serial engine's generation order. Build with NewParEngine; Release must
// be called when the run ends (the harness defers it) so a panicking run
// cannot leak the goroutine.
type ParEngine struct {
	// window is each Stream's buffer size: how many finished results the
	// worker may hold ahead of the timing thread before it waits.
	window int

	dead      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	genMu   sync.Mutex
	genCond sync.Cond
	genQ    []func()
}

// NewParEngine starts the worker for one run. window bounds how many
// finished results each Stream may hold ahead of its consumer.
func NewParEngine(window int) *ParEngine {
	if window < 1 {
		window = 1
	}
	p := &ParEngine{window: window, dead: make(chan struct{})}
	p.genCond.L = &p.genMu
	p.wg.Add(1)
	go p.genWorker()
	return p
}

// Release shuts the worker down and waits for it to exit. Idempotent and
// safe to call while jobs are in flight: the worker abandons a blocked
// hand-off when the engine dies.
func (p *ParEngine) Release() {
	p.closeOnce.Do(func() {
		close(p.dead)
		p.genMu.Lock()
		p.genCond.Broadcast()
		p.genMu.Unlock()
	})
	p.wg.Wait()
}

// genWorker drains the generation queue in FIFO order — the order jobs
// were submitted on the timing thread, which for kernel generation is
// the order the serial engine would have called Gen in.
func (p *ParEngine) genWorker() {
	defer p.wg.Done()
	for {
		p.genMu.Lock()
		for len(p.genQ) == 0 {
			select {
			case <-p.dead:
				p.genMu.Unlock()
				return
			default:
			}
			p.genCond.Wait()
		}
		fn := p.genQ[0]
		p.genQ[0] = nil
		p.genQ = p.genQ[1:]
		p.genMu.Unlock()
		fn()
	}
}

// gen enqueues fn for the generation worker. The queue is unbounded:
// submissions happen at launch events on the timing thread and must
// never block it (a blocked timing thread could never consume the
// results that would make room).
func (p *ParEngine) gen(fn func()) {
	p.genMu.Lock()
	p.genQ = append(p.genQ, fn)
	p.genMu.Unlock()
	p.genCond.Signal()
}

// result is one pipelined job's outcome: its value, or the panic that
// killed it (re-raised on the timing thread at consumption, so the
// harness classifies it exactly as it would a serial panic).
type result struct {
	v        any
	panicVal any
}

// Stream delivers pipelined job results to the timing thread in
// submission order. The timing thread calls Next once per job; the
// worker side is driven by Pipeline.
type Stream struct {
	p       *ParEngine
	results chan result
	// admitted counts results sent in the current flow-control window,
	// for the sim_engine_windows_total / _window_events accounting.
	// Worker side only.
	admitted int
}

// Next blocks for the oldest unconsumed job's result. A job that
// panicked re-panics here with the original value. Time spent waiting is
// the timing side of sim_engine_stall_seconds.
func (st *Stream) Next() any {
	var r result
	select {
	case r = <-st.results:
	default:
		t0 := time.Now()
		r = <-st.results
		mStallTiming.Observe(time.Since(t0).Seconds())
	}
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.v
}

// send hands r to the consumer, blocking while the window of unconsumed
// results is full; that wait is the gen side of sim_engine_stall_seconds.
// Returns false when the engine died instead.
func (st *Stream) send(r result) bool {
	select {
	case st.results <- r:
	default:
		t0 := time.Now()
		select {
		case st.results <- r:
		case <-st.p.dead:
			return false
		}
		mStallGen.Observe(time.Since(t0).Seconds())
	}
	st.admitted++
	if st.admitted == st.p.window {
		st.flushWindow()
	}
	return true
}

// flushWindow closes one accounting window: one windows_total tick and
// one window_events observation of the jobs it admitted.
func (st *Stream) flushWindow() {
	if st.admitted == 0 {
		return
	}
	mWindows.Inc()
	mWindowEvents.Observe(float64(st.admitted))
	st.admitted = 0
}

// capture runs fn, converting a panic into a shippable result.
func capture(fn func() any) (r result) {
	defer func() {
		if pv := recover(); pv != nil {
			r = result{panicVal: pv}
		}
	}()
	return result{v: fn()}
}

// Pipeline runs n ordered jobs on the generation worker and returns the
// stream their results arrive on. gen(i) runs strictly in i order across
// every Pipeline call on this engine — the property that keeps functional
// generation in serial order. The consumer must call Next exactly once
// per job, in order. A job that panics poisons the pipeline: its panic
// ships to the consumer and no later job of this Pipeline runs.
func (p *ParEngine) Pipeline(n int, gen func(i int) any) *Stream {
	st := &Stream{p: p, results: make(chan result, p.window)}
	p.gen(func() {
		defer st.flushWindow()
		for i := 0; i < n; i++ {
			r := capture(func() any { return gen(i) })
			if !st.send(r) || r.panicVal != nil {
				return
			}
		}
	})
	return st
}
