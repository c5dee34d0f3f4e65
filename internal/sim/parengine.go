// Conservative intra-run parallelism for the discrete-event engine.
//
// The obvious conservative-PDES decomposition — one event heap per
// component domain, advancing independently inside a lookahead window —
// is unsound here: the timing models interact through synchronous
// analytic calls (a warp's store walks L1→L2→fabric→DRAM inside one
// event; BusyModel.Claim order is event execution order), so nearly
// every event reads shared timing state and the cross-domain lookahead
// collapses to a single event. What CAN leave the timing thread without
// perturbing the (when, seq) total order is the work that produces
// events' inputs rather than consuming simulated time: functional trace
// generation (running kernel code to record lane traces) and compiling
// those traces into warp programs (SIMT merge, address coalescing).
// ParEngine runs that work on one generation worker, pipelined ahead of
// the timing clock inside a bounded window, and the timing thread
// consumes the results in exactly the order the serial engine would have
// produced them — so results, counters, traces, and run records stay
// byte-identical to the serial engine for every worker count.
//
// Domains partition scheduled events for accounting (Engine.AtD);
// DomainGen is the off-thread one. A run whose configuration admits no
// safe window (zero lookahead) or whose workload breaks the
// generation-order guarantee (persistent kernels, whose batch dispatch
// interleaves timing-dependently) falls back to the serial path and says
// so in sim_engine_serial_fallback_total.
package sim

import (
	"sync"
	"time"
)

// Domain identifies which component model an event (or off-thread job)
// belongs to. The timing domains share one serial engine; Gen is the
// parallel engine's off-thread stage.
type Domain uint8

const (
	// DomainHost is host-side runtime work: launches, copies, dependency
	// resolution, CPU task dispatch.
	DomainHost Domain = iota
	// DomainCPU is the CPU core timing model.
	DomainCPU
	// DomainGPU is the GPU SM/warp timing model.
	DomainGPU
	// DomainMem is the cache/fabric/DRAM hierarchy. Its models are
	// synchronous analytic calls and schedule no events of their own —
	// the coupling that rules out per-component event heaps.
	DomainMem
	// DomainPCIe is the copy-engine DMA pacing model.
	DomainPCIe
	// DomainVM is address translation and page-fault handling. Like
	// DomainMem it is synchronous and schedules no events.
	DomainVM
	// DomainGen is off-thread functional trace generation and warp
	// program compilation.
	DomainGen

	// NumDomains sizes per-domain accounting arrays.
	NumDomains
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case DomainHost:
		return "host"
	case DomainCPU:
		return "cpu"
	case DomainGPU:
		return "gpu"
	case DomainMem:
		return "mem"
	case DomainPCIe:
		return "pcie"
	case DomainVM:
		return "vm"
	case DomainGen:
		return "gen"
	default:
		return "domain?"
	}
}

// FallbackReason says why a run (or part of one) stayed on the serial
// engine despite a -par request.
type FallbackReason uint8

const (
	// FallbackZeroLookahead: the configuration's minimum cross-domain
	// latency is zero, so no window exists in which workers may safely
	// run ahead of the timing clock.
	FallbackZeroLookahead FallbackReason = iota
	// FallbackPersistentKernel: the run launched a persistent kernel,
	// whose CTA batches dispatch in timing-dependent order — pipelining
	// later kernels could reorder functional generation against it.
	FallbackPersistentKernel

	// NumFallbackReasons sizes the pre-resolved counter array.
	NumFallbackReasons
)

// String names the fallback reason (the metric label value).
func (r FallbackReason) String() string {
	if r == FallbackZeroLookahead {
		return "zero-lookahead"
	}
	return "persistent-kernel"
}

// ParEngine owns the worker goroutine of one parallel run: a single
// generation worker, which executes submitted jobs strictly in
// submission order (preserving the serial engine's generation order).
// Every par of 2 and up runs the timing thread plus that one worker.
// Build with NewParEngine; Release must be called when the run ends (the
// harness defers it) so a panicking run cannot leak the goroutine.
type ParEngine struct {
	window    int
	lookahead Tick

	dead      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	genMu   sync.Mutex
	genCond sync.Cond
	genQ    []func()
}

// NewParEngine builds the worker for one run. par < 2 returns nil
// (serial run, no worker); window bounds how many jobs each Stream may
// run ahead of its consumer; lookahead is the config-derived window
// width recorded for diagnostics (callers must not construct a
// ParEngine when it is zero — that is the serial fallback).
func NewParEngine(par, window int, lookahead Tick) *ParEngine {
	if par < 2 {
		return nil
	}
	if window < 1 {
		window = 1
	}
	p := &ParEngine{window: window, lookahead: lookahead, dead: make(chan struct{})}
	p.genCond.L = &p.genMu
	p.wg.Add(1)
	go p.genWorker()
	return p
}

// Window reports the per-stream flow-control window.
func (p *ParEngine) Window() int { return p.window }

// Lookahead reports the config-derived lookahead width.
func (p *ParEngine) Lookahead() Tick { return p.lookahead }

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

// Result is one pipelined job's outcome: its value, or the panic that
// killed it (re-raised on the timing thread at consumption, so the
// harness classifies it exactly as it would a serial panic).
type Result struct {
	V        any
	panicVal any
}

// Stream delivers pipelined job results to the timing thread in
// submission order. The timing thread calls Next once per job; the
// producer side is driven by Pipeline.
type Stream struct {
	p     *ParEngine
	slots chan chan Result
	// admitted counts jobs in the current flow-control window, for the
	// sim_engine_windows_total / _window_events accounting. Producer
	// side only.
	admitted int
}

// NewStream builds an ordered result stream with the engine's window as
// its flow-control bound.
func (p *ParEngine) NewStream() *Stream {
	return &Stream{p: p, slots: make(chan chan Result, p.window)}
}

// Next blocks for the oldest unconsumed job's result. A job that
// panicked re-panics here with the original value. Time spent waiting is
// the timing side of sim_engine_stall_seconds.
func (st *Stream) Next() any {
	r := recv(recv(st.slots))
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.V
}

// recv receives from ch, counting any time it blocks as a timing-side
// stall.
func recv[T any](ch chan T) T {
	select {
	case v := <-ch:
		return v
	default:
	}
	t0 := time.Now()
	v := <-ch
	mStallTiming.Observe(time.Since(t0).Seconds())
	return v
}

// push admits the next job slot, blocking while the window is full (the
// producer may run at most Window jobs ahead of the consumer); that wait
// is the gen side of sim_engine_stall_seconds. Returns false when the
// engine died instead.
func (st *Stream) push() (chan Result, bool) {
	slot := make(chan Result, 1)
	select {
	case st.slots <- slot:
	default:
		t0 := time.Now()
		select {
		case st.slots <- slot:
		case <-st.p.dead:
			return nil, false
		}
		mStallGen.Observe(time.Since(t0).Seconds())
	}
	st.admitted++
	if st.admitted == st.p.window {
		st.flushWindow()
	}
	return slot, true
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

// capture runs fn, converting a panic into a shippable Result.
func capture(fn func() any) (r Result) {
	defer func() {
		if pv := recover(); pv != nil {
			r = Result{panicVal: pv}
		}
	}()
	return Result{V: fn()}
}

// Pipeline runs n ordered jobs on the generation worker and returns the
// stream their results arrive on. gen(i) runs strictly in i order across
// every Pipeline call on this engine — the property that keeps functional
// generation in serial order. The consumer must call Next exactly once
// per job, in order. A job that panics poisons the pipeline: its panic
// ships to the consumer and no later job of this Pipeline runs.
func (p *ParEngine) Pipeline(n int, gen func(i int) any) *Stream {
	st := p.NewStream()
	p.gen(func() {
		defer st.flushWindow()
		for i := 0; i < n; i++ {
			slot, ok := st.push()
			if !ok {
				return
			}
			r := capture(func() any { return gen(i) })
			slot <- r
			if r.panicVal != nil {
				return
			}
		}
	})
	return st
}
