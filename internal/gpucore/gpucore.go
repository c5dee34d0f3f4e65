// Package gpucore is the trace-driven GPU timing model: 16 Fermi-like SMs,
// each running up to 8 CTAs / 48 warps of 32 lanes, with per-warp SIMT
// replay, address coalescing into 128B transactions, stall-on-use memory
// behaviour (latency hidden across warps), CTA-wide barriers, and
// greedy-then-oldest-approximating issue arbitration via a per-SM issue
// port.
//
// Lane traces are generated lazily per CTA by the device layer (CUDA
// semantics make CTAs order-independent), so peak trace memory is bounded by
// the resident CTA set rather than the whole grid.
package gpucore

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// quantum bounds how far a warp replays ahead of global time in one event.
const quantum = 100 * sim.Nanosecond

// Kernel describes one launched grid for the timing model.
type Kernel struct {
	Name         string
	CTAs         int
	ThreadsPerTA int // threads per CTA (block size)
	ScratchBytes int // scratch per CTA
	// Gen lazily produces the lane traces for CTA cta (ThreadsPerTA traces).
	Gen func(cta int) []isa.Trace
	// GenPar, when set and the GPU has a parallel engine, generates CTA
	// traces on the engine's generation worker instead of Gen on the timing
	// thread. It must be safe to run off-thread (it may not touch the
	// engine or collector) and must produce exactly what Gen would.
	GenPar func(cta int) []isa.Trace
	// Done fires when the last CTA completes. flops is the total FLOPs the
	// kernel executed.
	Done func(end sim.Tick, flops uint64)

	// stream delivers pipelined CTA generation results in CTA order when
	// the kernel was launched with a parallel engine active; nil runs Gen
	// synchronously in startCTA (the serial path).
	stream *sim.Stream

	remaining int // CTAs not yet dispatched
	live      int // CTAs resident on SMs
	nextCTA   int // next global CTA index to dispatch
	flops     uint64
	lastEnd   sim.Tick

	// Persistent-kernel state: an open kernel holds its queue slot and
	// accepts CTA batches via Feed until ClosePersistent.
	open    bool
	batches []*ctaBatch
}

// ctaBatch is one Feed's worth of CTAs in a persistent kernel: the grid is
// grown batch-by-batch while the kernel stays resident, so per-chunk work
// costs one queue append instead of a full launch.
type ctaBatch struct {
	start, end int // global CTA index range [start, end)
	remaining  int // batch CTAs not yet dispatched
	live       int // batch CTAs resident on SMs
	flops      uint64
	lastEnd    sim.Tick
	done       func(end sim.Tick, flops uint64)
}

// totalFlops sums kernel-level and per-batch FLOP accumulators. Normal
// kernels have no batches, so this is exactly k.flops for them.
func (k *Kernel) totalFlops() uint64 {
	f := k.flops
	for _, b := range k.batches {
		f += b.flops
	}
	return f
}

// GPU is the whole device: SMs sharing an L2 through their L1s.
type GPU struct {
	Eng *sim.Engine
	Clk sim.Clock
	Cfg config.GPUConfig
	VM  *vm.Manager
	Ctr *stats.Counters
	// L1s[i] is SM i's private L1 (write-through no-allocate for stores).
	L1s       []*memory.Cache
	LineBytes int

	// Tr is the optional trace sink (nil-safe). Per-CTA spans are capped
	// device-wide: big grids run tens of thousands of CTAs, and the first
	// few thousand already show the occupancy shape.
	Tr     *trace.Recorder
	trCTAs int

	sms    []*sm
	queue  []*Kernel // FIFO of kernels with undispatched CTAs
	warpsz int

	// Par, when non-nil, pipelines CTA trace generation (and, with pre
	// workers, coalescing plans) ahead of the timing clock. parOK drops to
	// false — permanently, for the rest of the run — at the first
	// persistent-kernel launch, whose batch-by-batch dispatch order is
	// timing-dependent and would break the generation-order guarantee for
	// kernels launched after it.
	Par   *sim.ParEngine
	parOK bool

	// Interned counter handles, resolved once in New — warp replay is the
	// simulator's hottest loop and must not hash counter names.
	cCTAs, cFLOPs, cScratchOps         stats.Counter
	cMemTransactions, cAtomics, cWarps stats.Counter
}

// maxCTASpans bounds per-CTA trace spans across the device.
const maxCTASpans = 2048

type sm struct {
	g         *GPU
	id        int
	issue     sim.BusyModel
	liveCTAs  int
	liveWarps int
	scratch   int
	// freeWarps pools retired warp structs for reuse, keeping their lanes
	// and coalescing buffers' capacity and their bound step closure.
	freeWarps []*warp
}

// takeWarp pops a pooled warp or builds a fresh one. The step closure is
// created once per warp object and rides along through reuse.
func (s *sm) takeWarp(cs *ctaState, now sim.Tick) *warp {
	if n := len(s.freeWarps); n > 0 {
		wp := s.freeWarps[n-1]
		s.freeWarps = s.freeWarps[:n-1]
		wp.cta = cs
		wp.t = now
		wp.ended = false
		wp.lanes = wp.lanes[:0]
		wp.plan = nil
		wp.planInst = 0
		wp.planOff = 0
		return wp
	}
	wp := &warp{sm: s, cta: cs, t: now}
	wp.stepFn = wp.step
	return wp
}

// New builds a GPU. l1s must have Cfg.SMs entries.
func New(eng *sim.Engine, cfg config.GPUConfig, l1s []*memory.Cache, vmgr *vm.Manager, lineBytes int, ctr *stats.Counters) *GPU {
	if len(l1s) != cfg.SMs {
		panic("gpucore: need one L1 per SM")
	}
	if ctr == nil {
		ctr = stats.NewCounters()
	}
	g := &GPU{
		Eng:       eng,
		Clk:       sim.NewClock(cfg.ClockHz),
		Cfg:       cfg,
		VM:        vmgr,
		Ctr:       ctr,
		L1s:       l1s,
		LineBytes: lineBytes,
		warpsz:    cfg.WarpSize,
	}
	g.cCTAs = ctr.Handle("gpu.ctas")
	g.cFLOPs = ctr.Handle("gpu.flops")
	g.cScratchOps = ctr.Handle("gpu.scratch_ops")
	g.cMemTransactions = ctr.Handle("gpu.mem_transactions")
	g.cAtomics = ctr.Handle("gpu.atomics")
	g.cWarps = ctr.Handle("gpu.warps_retired")
	for i := 0; i < cfg.SMs; i++ {
		g.sms = append(g.sms, &sm{g: g, id: i})
	}
	return g
}

// UsePar attaches a parallel engine: kernels launched from now on pipeline
// their CTA trace generation through it. Call before any launches.
func (g *GPU) UsePar(p *sim.ParEngine) {
	g.Par = p
	g.parOK = p != nil
}

// Launch enqueues a kernel to start at time at. Multiple in-flight kernels
// share the CTA dispatch queue FIFO, so a later kernel's CTAs backfill SMs
// as an earlier kernel drains.
func (g *GPU) Launch(at sim.Tick, k *Kernel) {
	if k.CTAs <= 0 || k.ThreadsPerTA <= 0 {
		panic("gpucore: kernel needs at least one CTA and one thread")
	}
	k.remaining = k.CTAs
	k.nextCTA = 0
	g.Eng.AtD(sim.DomainGPU, at, func() {
		g.Tr.Instant(stats.GPU, "GPU dispatch", "kernel", "kernel queued: "+k.Name, g.Eng.Now(),
			trace.Arg{Key: "ctas", Val: k.CTAs}, trace.Arg{Key: "block", Val: k.ThreadsPerTA})
		if g.parOK {
			g.pipeline(k)
		}
		g.queue = append(g.queue, k)
		g.dispatch()
	})
}

// pipeline submits kernel k's CTA generation to the parallel engine at its
// launch event. Launch events execute in engine order and the generation
// worker drains submissions FIFO, so across every kernel the off-thread
// generation order equals the order serial dispatch would have called Gen
// in (dispatch drains the queue head first: all of an earlier kernel's
// CTAs, in increasing index order, generate before a later kernel's
// first). With pre workers, each generated CTA then gets its coalescing
// plan built off-thread before the timing thread consumes it in startCTA.
func (g *GPU) pipeline(k *Kernel) {
	gen := k.GenPar
	if gen == nil {
		gen = k.Gen
	}
	genFn := func(i int) any { return gen(i) }
	if g.Par.PreWorkers() == 0 {
		k.stream = g.Par.Pipeline(k.CTAs, genFn, nil)
		return
	}
	warpsz, lineBytes := g.warpsz, g.LineBytes
	k.stream = g.Par.Pipeline(k.CTAs, genFn, func(_, _ int, v any) any {
		traces := v.([]isa.Trace)
		return &ctaOut{traces: traces, plan: buildCTAPlan(traces, warpsz, lineBytes)}
	})
}

// LaunchPersistent enqueues an open (persistent) kernel at time at. The
// kernel starts with zero CTAs and holds its FIFO slot: Feed grows the grid
// batch-by-batch while the kernel stays resident, and ClosePersistent
// retires it. Done fires once — after close, when the last fed CTA drains —
// with the total FLOPs across all batches, amortizing the launch over every
// chunk the way a real persistent kernel amortizes its dispatch.
func (g *GPU) LaunchPersistent(at sim.Tick, k *Kernel) {
	if k.ThreadsPerTA <= 0 {
		panic("gpucore: kernel needs at least one thread")
	}
	k.open = true
	k.CTAs = 0
	k.remaining = 0
	k.nextCTA = 0
	g.Eng.AtD(sim.DomainGPU, at, func() {
		if g.parOK {
			// A persistent kernel's CTAs generate at Feed-driven dispatch
			// times, so generation order past this point is timing-dependent:
			// stop pipelining new launches. Kernels already pipelined keep
			// their streams — their generation was ordered before this event.
			g.parOK = false
			sim.RecordSerialFallback(sim.FallbackPersistentKernel)
		}
		g.Tr.Instant(stats.GPU, "GPU dispatch", "kernel", "persistent kernel opened: "+k.Name, g.Eng.Now(),
			trace.Arg{Key: "block", Val: k.ThreadsPerTA})
		g.queue = append(g.queue, k)
	})
}

// Feed appends a batch of ctas CTAs to an open persistent kernel at time
// at. done (optional) fires when this batch's last CTA completes, with the
// batch's FLOPs — the per-chunk completion signal.
func (g *GPU) Feed(at sim.Tick, k *Kernel, ctas int, done func(end sim.Tick, flops uint64)) {
	if ctas <= 0 {
		panic("gpucore: feed needs at least one CTA")
	}
	g.Eng.AtD(sim.DomainGPU, at, func() {
		if !k.open {
			panic("gpucore: Feed on closed kernel " + k.Name)
		}
		b := &ctaBatch{start: k.CTAs, end: k.CTAs + ctas, remaining: ctas, done: done}
		k.batches = append(k.batches, b)
		k.CTAs += ctas
		k.remaining += ctas
		g.Tr.Instant(stats.GPU, "GPU dispatch", "kernel", "batch fed: "+k.Name, g.Eng.Now(),
			trace.Arg{Key: "ctas", Val: ctas})
		g.dispatch()
	})
}

// ClosePersistent stops an open kernel accepting batches at time at. If the
// kernel has already drained, Done fires immediately (at the close time —
// the resident kernel exits when it observes the stop flag); otherwise it
// fires when the last CTA completes.
func (g *GPU) ClosePersistent(at sim.Tick, k *Kernel) {
	g.Eng.AtD(sim.DomainGPU, at, func() {
		if !k.open {
			return
		}
		k.open = false
		if k.remaining == 0 && k.live == 0 {
			now := g.Eng.Now()
			if k.lastEnd < now {
				k.lastEnd = now
			}
			if k.Done != nil {
				k.Done(k.lastEnd, k.totalFlops())
			}
			g.dispatch() // unpark the queue slot the closed kernel held
		}
	})
}

// warpsNeeded reports warps per CTA for kernel k.
func (g *GPU) warpsNeeded(k *Kernel) int {
	return (k.ThreadsPerTA + g.warpsz - 1) / g.warpsz
}

// dispatch fills SMs with CTAs from the queue head. A drained normal (or
// closed persistent) kernel is removed; an open persistent kernel with no
// pending CTAs parks in place — it keeps its slot but does not head-block
// later kernels while waiting for its next Feed.
func (g *GPU) dispatch() {
	qi := 0
	for qi < len(g.queue) {
		k := g.queue[qi]
		if k.remaining == 0 {
			if k.open {
				qi++ // parked: open persistent kernel awaiting a Feed
				continue
			}
			g.queue = append(g.queue[:qi], g.queue[qi+1:]...)
			continue
		}
		placed := false
		for _, s := range g.sms {
			if k.remaining == 0 {
				break
			}
			if s.canTake(k) {
				s.startCTA(k, k.nextCTA)
				k.nextCTA++
				k.remaining--
				k.live++
				placed = true
			}
		}
		if !placed {
			return // all SMs full; retry when a CTA finishes
		}
	}
}

func (s *sm) canTake(k *Kernel) bool {
	w := s.g.warpsNeeded(k)
	return s.liveCTAs < s.g.Cfg.MaxCTAsPerSM &&
		s.liveWarps+w <= s.g.Cfg.MaxWarpsPerSM &&
		s.scratch+k.ScratchBytes <= s.g.Cfg.ScratchBytesPkSM
}

// ctaState tracks one resident CTA, including its barrier.
type ctaState struct {
	sm        *sm
	k         *Kernel
	b         *ctaBatch // owning feed batch (persistent kernels only)
	fl        *uint64   // flops accumulator: &k.flops or &b.flops
	idx       int       // CTA index within the grid
	start     sim.Tick  // residency start, for the trace span
	liveWarps int
	// barrier state
	arrived int
	maxT    sim.Tick
	waiting []*warp
}

func (s *sm) startCTA(k *Kernel, ctaIdx int) {
	now := s.g.Eng.Now()
	var traces []isa.Trace
	var plan *ctaPlan
	if k.stream != nil {
		// Pipelined kernel: CTAs dispatch in increasing index order (the
		// order the pump generated them in), so the stream's next result is
		// exactly this CTA's.
		switch v := k.stream.Next().(type) {
		case *ctaOut:
			traces, plan = v.traces, v.plan
		case []isa.Trace:
			traces = v
		}
	} else {
		traces = k.Gen(ctaIdx)
	}
	if len(traces) != k.ThreadsPerTA {
		panic("gpucore: Gen returned wrong lane count for kernel " + k.Name)
	}
	w := s.g.warpsNeeded(k)
	cs := &ctaState{sm: s, k: k, fl: &k.flops, idx: ctaIdx, start: now, liveWarps: w}
	for _, b := range k.batches {
		if ctaIdx >= b.start && ctaIdx < b.end {
			cs.b = b
			cs.fl = &b.flops
			b.remaining--
			b.live++
			break
		}
	}
	s.liveCTAs++
	s.liveWarps += w
	s.scratch += k.ScratchBytes
	s.g.cCTAs.Inc()
	for wi := 0; wi < w; wi++ {
		lo := wi * s.g.warpsz
		hi := lo + s.g.warpsz
		if hi > len(traces) {
			hi = len(traces)
		}
		wp := s.takeWarp(cs, now)
		if plan != nil {
			wp.plan = &plan.warps[wi]
		}
		for _, tr := range traces[lo:hi] {
			wp.lanes = append(wp.lanes, laneCursor{tr: tr})
		}
		s.g.Eng.AtD(sim.DomainGPU, now, wp.stepFn)
	}
}

func (cs *ctaState) warpDone(end sim.Tick) {
	s := cs.sm
	cs.liveWarps--
	s.liveWarps--
	if cs.liveWarps > 0 {
		// If the remaining live warps are all parked at the barrier, a
		// retired warp must not keep them waiting (tolerates traces whose
		// sync counts differ across warps).
		cs.tryRelease()
		return
	}
	// CTA complete: release resources, backfill, maybe finish the kernel.
	cs.traceCTA(end)
	s.liveCTAs--
	s.scratch -= cs.k.ScratchBytes
	cs.k.live--
	if end > cs.k.lastEnd {
		cs.k.lastEnd = end
	}
	if b := cs.b; b != nil {
		b.live--
		if end > b.lastEnd {
			b.lastEnd = end
		}
		if b.remaining == 0 && b.live == 0 && b.done != nil {
			done := b.done
			b.done = nil
			done(b.lastEnd, b.flops)
		}
	}
	k := cs.k
	if !k.open && k.remaining == 0 && k.live == 0 {
		if k.Done != nil {
			k.Done(k.lastEnd, k.totalFlops())
		}
	}
	s.g.dispatch()
}

// traceCTA records the CTA's SM-residency span, up to the device-wide cap.
func (cs *ctaState) traceCTA(end sim.Tick) {
	g := cs.sm.g
	if !g.Tr.Enabled() || g.trCTAs > maxCTASpans {
		return
	}
	g.trCTAs++
	if g.trCTAs > maxCTASpans {
		g.Tr.Instant(stats.GPU, fmt.Sprintf("SM%d", cs.sm.id), "cta", "cta spans capped", end,
			trace.Arg{Key: "cap", Val: maxCTASpans})
		return
	}
	g.Tr.Span(stats.GPU, fmt.Sprintf("SM%d", cs.sm.id), "cta",
		fmt.Sprintf("%s cta %d", cs.k.Name, cs.idx), cs.start, end)
}

type laneCursor struct {
	tr  isa.Trace
	idx int
}

func (lc *laneCursor) done() bool { return lc.idx >= len(lc.tr) }

type warp struct {
	sm    *sm
	cta   *ctaState
	lanes []laneCursor
	t     sim.Tick
	ended bool
	// stepFn is w.step bound once at construction; scheduling it avoids a
	// method-value closure allocation on every suspend/resume.
	stepFn func()
	// lineBuf is the reused coalescing scratch buffer: memoryOp gathers the
	// op's unique lines into it instead of allocating a fresh slice per
	// memory instruction.
	lineBuf []memory.Addr
	// plan, when non-nil, is this warp's precomputed coalesced line lists
	// (built off-thread by a pre worker); planInst/planOff cursor through
	// it in memory-op issue order.
	plan     *warpPlan
	planInst int
	planOff  int
}

// step replays warp instructions until it blocks on memory, hits a barrier,
// exhausts its quantum, or finishes.
func (w *warp) step() {
	g := w.sm.g
	limit := w.t + quantum

	for w.t < limit {
		// SIMT merge: the lowest-numbered unfinished lane leads; every
		// unfinished lane whose next op matches its kind participates.
		// Divergent lanes wait for a later slot — branch serialization.
		lead := -1
		for i := range w.lanes {
			if !w.lanes[i].done() {
				lead = i
				break
			}
		}
		if lead < 0 {
			w.finish()
			return
		}
		kind := w.lanes[lead].tr[w.lanes[lead].idx].Kind

		switch kind {
		case isa.OpSync:
			// All unfinished lanes must be at the barrier in well-formed
			// code; advance every lane currently at a sync.
			for i := range w.lanes {
				lc := &w.lanes[i]
				if !lc.done() && lc.tr[lc.idx].Kind == isa.OpSync {
					lc.idx++
				}
			}
			if w.barrier() {
				return // suspended until the last warp arrives
			}
			continue

		case isa.OpCompute:
			var maxN uint32
			var sum uint64
			for i := range w.lanes {
				lc := &w.lanes[i]
				if !lc.done() && lc.tr[lc.idx].Kind == isa.OpCompute {
					n := lc.tr[lc.idx].N
					if n > maxN {
						maxN = n
					}
					sum += uint64(n)
					lc.idx++
				}
			}
			cyc := int64(maxN)
			if cyc < 1 {
				cyc = 1
			}
			start := w.sm.issue.Claim(w.t, g.Clk.Cycles(cyc))
			w.t = start + g.Clk.Cycles(cyc)
			*w.cta.fl += sum
			g.cFLOPs.Add(sum)

		case isa.OpScratch:
			for i := range w.lanes {
				lc := &w.lanes[i]
				if !lc.done() && lc.tr[lc.idx].Kind == isa.OpScratch {
					lc.idx++
				}
			}
			start := w.sm.issue.Claim(w.t, g.Clk.Cycles(1))
			w.t = start + g.Clk.Cycles(1)
			g.cScratchOps.Inc()

		case isa.OpLoad, isa.OpLoadDep, isa.OpStore, isa.OpAtomic:
			blocked := w.memoryOp(kind)
			if blocked {
				return // rescheduled at completion time
			}
		}
	}
	g.Eng.AtD(sim.DomainGPU, w.t, w.stepFn)
}

// ctaOut is a pre worker's product for one CTA: its lane traces plus the
// precomputed coalescing plan for its warps.
type ctaOut struct {
	traces []isa.Trace
	plan   *ctaPlan
}

// ctaPlan holds per-warp coalescing plans for one CTA.
type ctaPlan struct {
	warps []warpPlan
}

// warpPlan is one warp's memory ops flattened in issue order: counts[j]
// lines for the j-th memory op, stored contiguously in lines.
type warpPlan struct {
	lines  []memory.Addr
	counts []int32
}

// buildCTAPlan precomputes each warp's coalesced line lists by replaying
// step()'s SIMT sequencing over the traces. Which ops issue, in what
// per-warp order, with which participant lanes is a pure function of the
// trace contents — timing decides only when — so a plan built off-thread
// matches the live replay exactly. Sync, compute, and scratch ops advance
// lanes without producing lines; memory ops run the same coalesce body
// memoryOp would.
func buildCTAPlan(traces []isa.Trace, warpsz, lineBytes int) *ctaPlan {
	nw := (len(traces) + warpsz - 1) / warpsz
	plan := &ctaPlan{warps: make([]warpPlan, nw)}
	var lanes []laneCursor
	for wi := 0; wi < nw; wi++ {
		lo := wi * warpsz
		hi := lo + warpsz
		if hi > len(traces) {
			hi = len(traces)
		}
		lanes = lanes[:0]
		for _, tr := range traces[lo:hi] {
			lanes = append(lanes, laneCursor{tr: tr})
		}
		wp := &plan.warps[wi]
		for {
			lead := -1
			for i := range lanes {
				if !lanes[i].done() {
					lead = i
					break
				}
			}
			if lead < 0 {
				break
			}
			kind := lanes[lead].tr[lanes[lead].idx].Kind
			switch kind {
			case isa.OpSync, isa.OpCompute, isa.OpScratch:
				advanceLanes(lanes, kind)
			default:
				base := len(wp.lines)
				wp.lines = coalesce(wp.lines, lanes, kind, lineBytes)
				wp.counts = append(wp.counts, int32(len(wp.lines)-base))
			}
		}
	}
	return plan
}

// coalesce advances every lane whose next op matches kind and appends that
// op's unique line addresses to buf (deduplicated against buf's tail from
// base on, i.e. within this op only), returning the extended buffer. It is
// the single implementation of address coalescing, shared by the live
// memoryOp path and the off-thread plan builder — one body, so the two can
// never disagree on which transactions an op produces.
func coalesce(buf []memory.Addr, lanes []laneCursor, kind isa.OpKind, lineBytes int) []memory.Addr {
	base := len(buf)
	for i := range lanes {
		lc := &lanes[i]
		if lc.done() || lc.tr[lc.idx].Kind != kind {
			continue
		}
		op := lc.tr[lc.idx]
		lc.idx++
		n := memory.LinesSpanned(op.Addr, int(op.N), lineBytes)
		for j := 0; j < n; j++ {
			a := memory.LineAddr(op.Addr, lineBytes) + memory.Addr(j*lineBytes)
			dup := false
			for _, l := range buf[base:] {
				if l == a {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, a)
			}
		}
	}
	return buf
}

// advanceLanes advances every lane whose next op matches kind, without
// collecting addresses — the lane bookkeeping half of coalesce, used when a
// precomputed plan already holds the op's line list.
func advanceLanes(lanes []laneCursor, kind isa.OpKind) {
	for i := range lanes {
		lc := &lanes[i]
		if !lc.done() && lc.tr[lc.idx].Kind == kind {
			lc.idx++
		}
	}
}

// memoryOp issues a coalesced memory instruction. Loads and atomics block
// the warp until all transactions complete (stall-on-use); stores are
// posted. It reports whether the warp suspended (a resume event was
// scheduled).
func (w *warp) memoryOp(kind isa.OpKind) bool {
	g := w.sm.g
	write := kind == isa.OpStore || kind == isa.OpAtomic

	var lines []memory.Addr
	if pl := w.plan; pl != nil {
		// Precomputed path: the pre worker already coalesced this op's
		// lines; just advance the lanes and take the next plan entry.
		if w.planInst >= len(pl.counts) {
			panic("gpucore: coalescing plan diverged from replay for kernel " + w.cta.k.Name)
		}
		advanceLanes(w.lanes, kind)
		n := int(pl.counts[w.planInst])
		lines = pl.lines[w.planOff : w.planOff+n]
		w.planInst++
		w.planOff += n
	} else {
		// Gather participant addresses and coalesce into unique lines,
		// reusing the warp's scratch buffer.
		lines = coalesce(w.lineBuf[:0], w.lanes, kind, g.LineBytes)
		w.lineBuf = lines
	}
	g.cMemTransactions.Add(uint64(len(lines)))
	if kind == isa.OpAtomic {
		g.cAtomics.Inc()
	}

	l1 := g.L1s[w.sm.id]
	var worst sim.Tick
	t := w.t
	for _, a := range lines {
		start := w.sm.issue.Claim(t, g.Clk.Cycles(1))
		issueAt := start + g.Clk.Cycles(1)
		ready := g.VM.Translate(issueAt, a, true)
		done := l1.Access(ready, memory.Request{Addr: a, Write: write, Comp: stats.GPU, SrcID: gpuSrcID})
		if done > worst {
			worst = done
		}
		t = issueAt
	}

	if kind == isa.OpStore {
		w.t = t // posted
		return false
	}
	if worst <= w.t {
		w.t = t
		return false
	}
	w.t = worst
	g.Eng.AtD(sim.DomainGPU, worst, w.stepFn)
	return true
}

// barrier registers arrival; returns true if the warp suspended.
func (w *warp) barrier() bool {
	cs := w.cta
	cs.arrived++
	if w.t > cs.maxT {
		cs.maxT = w.t
	}
	if cs.arrived < cs.liveWarps {
		cs.waiting = append(cs.waiting, w)
		return true
	}
	// Last live warp to arrive: release everyone at the max arrival time.
	releaseT := cs.maxT
	waiters := cs.waiting
	cs.arrived = 0
	cs.maxT = 0
	cs.waiting = cs.waiting[:0] // re-arrivals happen in later events; reuse capacity
	for _, ww := range waiters {
		ww.t = releaseT
		w.sm.g.Eng.AtD(sim.DomainGPU, releaseT, ww.stepFn)
	}
	w.t = releaseT
	return false
}

// tryRelease frees barrier waiters when every still-live warp has arrived.
func (cs *ctaState) tryRelease() {
	if len(cs.waiting) == 0 || cs.arrived < cs.liveWarps {
		return
	}
	releaseT := cs.maxT
	waiters := cs.waiting
	cs.arrived = 0
	cs.maxT = 0
	cs.waiting = cs.waiting[:0]
	for _, ww := range waiters {
		ww.t = releaseT
		cs.sm.g.Eng.AtD(sim.DomainGPU, releaseT, ww.stepFn)
	}
}

func (w *warp) finish() {
	if w.ended {
		return
	}
	w.ended = true
	w.sm.g.cWarps.Inc()
	// Return the warp to the SM pool before warpDone: a retired warp has no
	// pending events and no barrier registration, and step() does not touch
	// the warp after finish() returns, so warpDone's dispatch chain may
	// immediately reuse it for a backfilled CTA.
	cta, t := w.cta, w.t
	w.cta = nil
	w.sm.freeWarps = append(w.sm.freeWarps, w)
	cta.warpDone(t)
}

// gpuSrcID is the Request.SrcID for the GPU cache hierarchy; the device
// layer wires fabrics with matching probe-group IDs.
const gpuSrcID = 100

// SrcID reports the GPU hierarchy's coherence source ID.
func SrcID() int { return gpuSrcID }

// BusyIssueTime sums per-SM issue-port busy time, a utilization aid.
func (g *GPU) BusyIssueTime() sim.Tick {
	var t sim.Tick
	for _, s := range g.sms {
		t += s.issue.BusyTime()
	}
	return t
}
