// Package gpucore is the trace-driven GPU timing model: 16 Fermi-like SMs,
// each running up to 8 CTAs / 48 warps of 32 lanes, with per-warp SIMT
// replay, address coalescing into 128B transactions, stall-on-use memory
// behaviour (latency hidden across warps), CTA-wide barriers, and
// greedy-then-oldest-approximating issue arbitration via a per-SM issue
// port.
//
// Lane traces are generated lazily per CTA by the device layer (CUDA
// semantics make CTAs order-independent) and compiled on the spot into one
// flat instruction stream per warp: the SIMT merge and address coalescing
// run once, in the compiler, and the timing model replays only the
// compiled program. Lane traces die at the compiler, so trace memory is one
// CTA's lanes per generator; what stays live are the compact programs of
// resident (and, with a parallel engine, pipelined) CTAs.
package gpucore

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
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
	// The traces may alias a buffer the generator reuses: they are valid
	// until the next Gen call of the same kernel. The GPU compiles them
	// into a warp program before making that call. Gen runs on the timing
	// thread for serial kernels and on the parallel engine's generation
	// worker for pipelined ones, so it must be safe to run off-thread: it
	// may not touch the engine or the collector. The footprint of the lines
	// it accesses is recorded from the compiled program at dispatch.
	Gen func(cta int) []isa.Trace
	// Done fires when the last CTA completes. flops is the total FLOPs the
	// kernel executed.
	Done func(end sim.Tick, flops uint64)

	// stream delivers the compiled programs of pipelined CTAs in CTA order
	// when the kernel was launched with a parallel engine active; nil
	// builds each program synchronously in startCTA (the serial path).
	stream *sim.Stream
	// cc is the compile scratch of whichever goroutine builds this
	// kernel's programs: the timing thread or the generation worker, never
	// both.
	cc compiler

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
	// Foot, when non-nil, receives the Figure 4 footprint of every
	// dispatched CTA: one touch per coalesced line of its program, on the
	// timing thread.
	Foot *core.Footprint

	// Tr is the optional trace sink (nil-safe). Per-CTA spans are capped
	// device-wide: big grids run tens of thousands of CTAs, and the first
	// few thousand already show the occupancy shape.
	Tr     *trace.Recorder
	trCTAs int

	sms    []*sm
	queue  []*Kernel // FIFO of kernels with undispatched CTAs
	warpsz int

	// par, when non-nil, pipelines CTA generation and compilation ahead of
	// the timing clock on its generation worker. parOK drops to
	// false — permanently, for the rest of the run — at the first
	// persistent-kernel launch, whose batch-by-batch dispatch order is
	// timing-dependent and would break the generation-order guarantee for
	// kernels launched after it.
	par   *sim.ParEngine
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

// UsePar attaches a parallel engine: kernels launched from now on build
// their CTA programs on its generation worker. Call before any launches.
func (g *GPU) UsePar(p *sim.ParEngine) {
	g.par = p
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
	g.Eng.At(at, func() {
		g.Tr.Instant(stats.GPU, "GPU dispatch", "kernel", "kernel queued: "+k.Name, g.Eng.Now(),
			trace.Arg{Key: "ctas", Val: k.CTAs}, trace.Arg{Key: "block", Val: k.ThreadsPerTA})
		if g.parOK {
			g.pipeline(k)
		}
		g.queue = append(g.queue, k)
		g.dispatch()
	})
}

// pipeline submits kernel k's CTA builds to the parallel engine at its
// launch event. Launch events execute in engine order and the generation
// worker drains submissions FIFO, so across every kernel the off-thread
// generation order equals the order serial dispatch would have called Gen
// in (dispatch drains the queue head first: all of an earlier kernel's
// CTAs, in increasing index order, generate before a later kernel's
// first).
func (g *GPU) pipeline(k *Kernel) {
	k.stream = g.par.Pipeline(k.CTAs, func(i int) any { return g.build(k, i) })
}

// build generates CTA cta with k.Gen and compiles it: the one path from a
// kernel's lane traces to a warp program. It runs on the timing thread for
// serial kernels and on the generation worker for pipelined ones.
func (g *GPU) build(k *Kernel, cta int) *program {
	traces := k.Gen(cta)
	if len(traces) != k.ThreadsPerTA {
		panic("gpucore: Gen returned wrong lane count for kernel " + k.Name)
	}
	return k.cc.compile(traces, g.warpsz, g.LineBytes)
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
	g.Eng.At(at, func() {
		if g.parOK {
			// A persistent kernel's CTAs generate at Feed-driven dispatch
			// times, so generation order past this point is timing-dependent:
			// stop pipelining new launches. Kernels already pipelined keep
			// their streams — their generation was ordered before this event.
			g.parOK = false
			sim.PersistentFallbacks.Inc()
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
	g.Eng.At(at, func() {
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
	g.Eng.At(at, func() {
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
	var p *program
	if k.stream != nil {
		// Pipelined kernel: CTAs dispatch in increasing index order (the
		// order the worker built them in), so the stream's next result is
		// exactly this CTA's program.
		p = k.stream.Next().(*program)
	} else {
		p = s.g.build(k, ctaIdx)
	}
	if f := s.g.Foot; f != nil {
		// The program's lines are exactly the distinct lines its lanes'
		// memory ops span, so this is the set every lane access would
		// have touched.
		for _, a := range p.lines {
			f.Touch(stats.GPU, a, s.g.LineBytes)
		}
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
		wp := s.takeWarp(cs, now)
		wp.code, wp.lines = p.warp(wi)
		s.g.Eng.At(now, wp.stepFn)
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

// inst is one compiled warp instruction (16 bytes). For OpCompute, n is
// the widest participating lane's FLOP count (its issue cycles) and sum the
// FLOPs of all participating lanes; for a memory kind, n is how many
// coalesced lines the op takes from the warp's line list. Sync and scratch
// carry no operands.
type inst struct {
	sum  uint64
	n    uint32
	kind isa.OpKind
}

// program is one CTA compiled for replay: every warp's instructions end to
// end in code, its coalesced lines end to end in lines, and warp w's share
// starting at at[w] (the last entry closes the last warp).
type program struct {
	code  []inst
	lines []memory.Addr
	at    []progOffset
}

type progOffset struct{ code, lines int }

// warp returns warp wi's instruction stream and coalesced lines.
func (p *program) warp(wi int) ([]inst, []memory.Addr) {
	lo, hi := p.at[wi], p.at[wi+1]
	return p.code[lo.code:hi.code], p.lines[lo.lines:hi.lines]
}

// compiler is the scratch one goroutine reuses across the CTAs it
// compiles; only the finished program is allocated per CTA.
type compiler struct {
	pos   []int // per-lane cursor into the lane's trace
	code  []inst
	lines []memory.Addr
	at    []progOffset
}

// compile runs the SIMT merge over one CTA's lane traces, warp by warp, and
// returns the program the warps replay. Which ops issue, in what per-warp
// order and with which lanes is a pure function of the traces (timing
// decides only when), so the merge runs once here. In each issue slot the
// lowest-numbered unfinished lane leads, and every unfinished lane whose
// next op has the leader's kind participates; divergent lanes wait for a
// later slot (branch serialization). A memory op's participant accesses
// coalesce into the distinct lines they span. The traces are not retained.
func (c *compiler) compile(traces []isa.Trace, warpsz, lineBytes int) *program {
	c.code, c.lines, c.at = c.code[:0], c.lines[:0], c.at[:0]
	for lo := 0; lo < len(traces); lo += warpsz {
		c.at = append(c.at, progOffset{len(c.code), len(c.lines)})
		c.warp(traces[lo:min(lo+warpsz, len(traces))], lineBytes)
	}
	c.at = append(c.at, progOffset{len(c.code), len(c.lines)})
	return &program{code: slices.Clone(c.code), lines: slices.Clone(c.lines), at: slices.Clone(c.at)}
}

// warp appends one warp's instructions and lines.
func (c *compiler) warp(lanes []isa.Trace, lineBytes int) {
	pos := c.pos[:0]
	for range lanes {
		pos = append(pos, 0)
	}
	c.pos = pos
	// Finished lanes stay finished, so the leader only moves up.
	for lead := 0; ; {
		for lead < len(lanes) && pos[lead] == len(lanes[lead]) {
			lead++
		}
		if lead == len(lanes) {
			return
		}
		in := inst{kind: lanes[lead][pos[lead]].Kind}
		base := len(c.lines)
		for i := lead; i < len(lanes); i++ {
			if pos[i] == len(lanes[i]) || lanes[i][pos[i]].Kind != in.kind {
				continue
			}
			op := lanes[i][pos[i]]
			pos[i]++
			switch {
			case in.kind == isa.OpCompute:
				in.n = max(in.n, op.N)
				in.sum += uint64(op.N)
			case in.kind.Mem():
				c.coalesce(base, op, lineBytes)
			}
		}
		if in.kind.Mem() {
			in.n = uint32(len(c.lines) - base)
		}
		c.code = append(c.code, in)
	}
}

// coalesce appends the lines op spans that the current memory op (whose
// lines start at base) does not already hold.
func (c *compiler) coalesce(base int, op isa.Op, lineBytes int) {
	if op.N == 0 {
		return
	}
	first := memory.LineAddr(op.Addr, lineBytes)
	last := memory.LineAddr(op.Addr+memory.Addr(op.N)-1, lineBytes)
	// A one-line op on the line appended last (unit stride) adds nothing.
	if first == last && len(c.lines) > base && c.lines[len(c.lines)-1] == first {
		return
	}
	for a := first; a <= last; a += memory.Addr(lineBytes) {
		if !slices.Contains(c.lines[base:], a) {
			c.lines = append(c.lines, a)
		}
	}
}

type warp struct {
	sm  *sm
	cta *ctaState
	// code and lines are the rest of the warp's compiled program: the
	// instructions not yet issued and the coalesced lines of its remaining
	// memory ops.
	code  []inst
	lines []memory.Addr
	t     sim.Tick
	ended bool
	// stepFn is w.step bound once at construction; scheduling it avoids a
	// method-value closure allocation on every suspend/resume.
	stepFn func()
}

// step replays warp instructions until it blocks on memory, hits a barrier,
// exhausts its quantum, or finishes.
func (w *warp) step() {
	g := w.sm.g
	limit := w.t + quantum

	for w.t < limit {
		if len(w.code) == 0 {
			w.finish()
			return
		}
		in := w.code[0]
		w.code = w.code[1:]

		switch in.kind {
		case isa.OpSync:
			if w.barrier() {
				return // suspended until the last warp arrives
			}

		case isa.OpCompute:
			cyc := max(int64(in.n), 1)
			start := w.sm.issue.Claim(w.t, g.Clk.Cycles(cyc))
			w.t = start + g.Clk.Cycles(cyc)
			*w.cta.fl += in.sum
			g.cFLOPs.Add(in.sum)

		case isa.OpScratch:
			start := w.sm.issue.Claim(w.t, g.Clk.Cycles(1))
			w.t = start + g.Clk.Cycles(1)
			g.cScratchOps.Inc()

		case isa.OpLoad, isa.OpLoadDep, isa.OpStore, isa.OpAtomic:
			if w.memoryOp(in.kind, int(in.n)) {
				return // rescheduled at completion time
			}
		}
	}
	g.Eng.At(w.t, w.stepFn)
}

// memoryOp issues a coalesced memory instruction over the warp's next n
// lines. Loads and atomics block the warp until all transactions complete
// (stall-on-use); stores are posted. It reports whether the warp suspended
// (a resume event was scheduled).
func (w *warp) memoryOp(kind isa.OpKind, n int) bool {
	g := w.sm.g
	write := kind == isa.OpStore || kind == isa.OpAtomic
	lines := w.lines[:n]
	w.lines = w.lines[n:]
	g.cMemTransactions.Add(uint64(n))
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
	g.Eng.At(worst, w.stepFn)
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
		w.sm.g.Eng.At(releaseT, ww.stepFn)
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
		cs.sm.g.Eng.At(releaseT, ww.stepFn)
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
	w.cta, w.code, w.lines = nil, nil, nil
	w.sm.freeWarps = append(w.sm.freeWarps, w)
	cta.warpDone(t)
}

// gpuSrcID is the Request.SrcID for the GPU cache hierarchy; the device
// layer wires fabrics with matching probe-group IDs.
const gpuSrcID = 100

// SrcID reports the GPU hierarchy's coherence source ID.
func SrcID() int { return gpuSrcID }
