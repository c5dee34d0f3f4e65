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
// generation (running kernel code to record lane traces) and trace
// pre-processing (footprint accounting, address coalescing). ParEngine
// runs those on worker goroutines, pipelined ahead of the timing clock
// inside a bounded window, and the timing thread consumes their results
// in exactly the order the serial engine would have produced them — so
// results, counters, traces, and run records stay byte-identical to the
// serial engine for every worker count.
//
// Domains partition scheduled events for accounting (Engine.AtD), and
// two of them — DomainGen and DomainPre — execute off-thread. A run
// whose configuration admits no safe window (zero lookahead) or whose
// workload breaks the generation-order guarantee (persistent kernels,
// whose batch dispatch interleaves timing-dependently) falls back to
// the serial path and says so in sim_engine_serial_fallback_total.
package sim

import (
	"sync"
)

// Domain identifies which component model an event (or off-thread job)
// belongs to. The timing domains share one serial engine; Gen and Pre
// are the off-thread pipeline stages of the parallel engine.
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
	// DomainGen is off-thread functional trace generation.
	DomainGen
	// DomainPre is off-thread trace pre-processing (address-coalescing
	// plans).
	DomainPre

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
	case DomainPre:
		return "pre"
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

// ParEngine owns the worker goroutines of one parallel run: a single
// generation worker, which executes submitted jobs strictly in
// submission order (preserving the serial engine's generation order),
// and zero or more pre-processing workers fed by the generation worker.
// par counts total workers including the timing loop: 2 = timing + gen,
// 3+ adds pre workers. Build with NewParEngine; Release must be called
// when the run ends (the harness defers it) so a panicking run cannot
// leak goroutines.
type ParEngine struct {
	par       int
	window    int
	lookahead Tick

	dead      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	genMu   sync.Mutex
	genCond sync.Cond
	genQ    []func()

	pre     []chan func()
	preNext int // round-robin cursor; generation worker only
}

// NewParEngine builds the worker set for one run. par < 2 returns nil
// (serial run, no workers); window bounds how many jobs each Stream may
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
	p := &ParEngine{par: par, window: window, lookahead: lookahead, dead: make(chan struct{})}
	p.genCond.L = &p.genMu
	p.wg.Add(1)
	go p.genWorker()
	for i := 2; i < par; i++ {
		ch := make(chan func(), window)
		p.pre = append(p.pre, ch)
		p.wg.Add(1)
		go p.preWorker(ch)
	}
	return p
}

// Par reports the total worker count (including the timing loop).
func (p *ParEngine) Par() int { return p.par }

// Window reports the per-stream flow-control window.
func (p *ParEngine) Window() int { return p.window }

// Lookahead reports the config-derived lookahead width.
func (p *ParEngine) Lookahead() Tick { return p.lookahead }

// PreWorkers reports how many pre-processing workers run (par - 2).
func (p *ParEngine) PreWorkers() int { return len(p.pre) }

// Release shuts the workers down and waits for them to exit. Idempotent
// and safe to call while jobs are in flight: workers abandon blocked
// hand-offs when the engine dies.
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

func (p *ParEngine) preWorker(ch chan func()) {
	defer p.wg.Done()
	for {
		select {
		case fn := <-ch:
			fn()
		case <-p.dead:
			return
		}
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

// preSubmit hands fn to pre worker w, abandoning the hand-off if the
// engine dies first. Reports whether the job was delivered.
func (p *ParEngine) preSubmit(w int, fn func()) bool {
	select {
	case p.pre[w] <- fn:
		return true
	case <-p.dead:
		return false
	}
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
// panicked re-panics here with the original value.
func (st *Stream) Next() any {
	r := <-<-st.slots
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.V
}

// push admits the next job slot, blocking while the window is full (the
// producer may run at most Window jobs ahead of the consumer). Returns
// false when the engine died instead.
func (st *Stream) push() (chan Result, bool) {
	slot := make(chan Result, 1)
	select {
	case st.slots <- slot:
	case <-st.p.dead:
		return nil, false
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

// Pipeline runs n ordered jobs through the worker set and returns the
// stream their results arrive on. gen(i) runs on the generation worker,
// strictly in i order across every Pipeline call on this engine — the
// property that keeps functional generation in serial order. When pre
// workers exist and pre is non-nil, each gen result is then transformed
// by pre(worker, i, v) on a round-robin pre worker; per-job order is
// restored by the stream, so pre jobs may complete out of order. The
// consumer must call Next exactly once per job, in order. A job that
// panics poisons the pipeline: its panic ships to the consumer and no
// later job of this Pipeline runs.
func (p *ParEngine) Pipeline(n int, gen func(i int) any, pre func(worker, i int, v any) any) *Stream {
	st := p.NewStream()
	p.gen(func() {
		defer st.flushWindow()
		for i := 0; i < n; i++ {
			slot, ok := st.push()
			if !ok {
				return
			}
			r := capture(func() any { return gen(i) })
			if r.panicVal != nil {
				slot <- r
				return
			}
			if pre != nil && len(p.pre) > 0 {
				w, i, v := p.preNext, i, r.V
				p.preNext++
				if p.preNext == len(p.pre) {
					p.preNext = 0
				}
				if !p.preSubmit(w, func() {
					slot <- capture(func() any { return pre(w, i, v) })
				}) {
					return
				}
				continue
			}
			if pre != nil {
				r = capture(func() any { return pre(0, i, r.V) })
				slot <- r
				if r.panicVal != nil {
					return
				}
				continue
			}
			slot <- r
		}
	})
	return st
}
