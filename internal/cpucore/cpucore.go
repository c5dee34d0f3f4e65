// Package cpucore is the trace-driven CPU timing model: a 4-wide
// out-of-order core approximated by an issue-bandwidth cursor plus a bounded
// window of overlapped outstanding misses (MLP). The model is deliberately
// latency-sensitive — the paper's CPU-side results hinge on CPU progress
// stalling behind off-chip reads after copies invalidate its caches.
package cpucore

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// quantum bounds how far ahead of global simulated time one task replays
// before yielding, keeping resource contention with concurrently executing
// components honest.
const quantum = 100 * sim.Nanosecond

// Core models one CPU core. A core executes one task trace at a time; the
// device layer's scheduler enforces that.
type Core struct {
	ID            int
	Eng           *sim.Engine
	Clk           sim.Clock
	IssueWidth    int
	FLOPsPerCycle int
	MLP           int
	Mem           memory.Port // the core's L1D
	SrcID         int
	VM            *vm.Manager
	Ctr           *stats.Counters
	LineBytes     int
	Tr            *trace.Recorder // optional trace sink (nil-safe)

	// Interned counter handles. Core is built by struct literal (no
	// constructor), so they resolve lazily on the first RunTrace.
	cFLOPs, cTraceOps stats.Counter
}

// tickHeap is a concrete min-heap of completion times for the MLP window.
// Typed push/pop avoid the per-load interface boxing that container/heap's
// Push(x any) would allocate.
type tickHeap struct {
	a []sim.Tick
}

func (h *tickHeap) len() int { return len(h.a) }

func (h *tickHeap) push(v sim.Tick) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *tickHeap) pop() sim.Tick {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.a[c+1] < h.a[c] {
			c++
		}
		if h.a[i] <= h.a[c] {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return top
}

type run struct {
	c     *Core
	tr    isa.Trace
	comp  stats.Component
	idx   int
	start sim.Tick
	t     sim.Tick
	out   tickHeap // outstanding load completions
	flops uint64
	done  func(end sim.Tick, flops uint64)
}

// RunTrace replays tr starting at start and calls done with the completion
// time and FLOPs executed. Replay is event-driven in quantum slices so that
// concurrent components contend for memory honestly.
func (c *Core) RunTrace(start sim.Tick, comp stats.Component, tr isa.Trace, done func(end sim.Tick, flops uint64)) {
	if !c.cFLOPs.Valid() {
		c.cFLOPs = c.Ctr.Handle("cpu.flops")
		c.cTraceOps = c.Ctr.Handle("cpu.trace_ops")
	}
	r := &run{c: c, tr: tr, comp: comp, start: start, t: start, done: done}
	c.Eng.At(start, r.step)
}

func (r *run) step() {
	c := r.c
	issueCost := c.Clk.Period() / sim.Tick(c.IssueWidth)
	if issueCost < 1 {
		issueCost = 1
	}
	limit := r.t + quantum

	for r.idx < len(r.tr) && r.t < limit {
		op := r.tr[r.idx]
		r.idx++
		switch op.Kind {
		case isa.OpCompute:
			r.flops += uint64(op.N)
			r.t += c.Clk.CyclesF(float64(op.N) / float64(c.FLOPsPerCycle))
		case isa.OpScratch, isa.OpSync:
			r.t += issueCost
		case isa.OpStore:
			ready := c.VM.Translate(r.t, op.Addr, false)
			r.access(ready, op, true)
			r.t = maxTick(r.t, ready) + issueCost
		case isa.OpLoad, isa.OpLoadDep, isa.OpAtomic:
			ready := c.VM.Translate(r.t, op.Addr, false)
			at := maxTick(r.t, ready)
			doneAt := r.access(at, op, op.Kind == isa.OpAtomic)
			if op.Kind == isa.OpLoad {
				// Overlap in the MLP window; stall only when it fills.
				r.out.push(doneAt)
				if r.out.len() > c.MLP {
					earliest := r.out.pop()
					r.t = maxTick(r.t, earliest)
				}
				r.t += issueCost
			} else {
				// Dependent load or atomic: serializes.
				r.t = doneAt + issueCost
			}
		}
	}

	if r.idx < len(r.tr) {
		c.Eng.At(r.t, r.step)
		return
	}
	end := r.t
	for _, o := range r.out.a {
		end = maxTick(end, o)
	}
	c.cFLOPs.Add(r.flops)
	c.cTraceOps.Add(uint64(len(r.tr)))
	c.Tr.Span(r.comp, fmt.Sprintf("CPU core %d", c.ID), "task", "task trace", r.start, end,
		trace.Arg{Key: "flops", Val: r.flops}, trace.Arg{Key: "ops", Val: len(r.tr)})
	r.done(end, r.flops)
}

// access issues the op's line accesses and returns the last completion time.
func (r *run) access(at sim.Tick, op isa.Op, write bool) sim.Tick {
	c := r.c
	n := memory.LinesSpanned(op.Addr, int(op.N), c.LineBytes)
	var last sim.Tick = at
	for i := 0; i < n; i++ {
		addr := memory.LineAddr(op.Addr, c.LineBytes) + memory.Addr(i*c.LineBytes)
		done := c.Mem.Access(at, memory.Request{Addr: addr, Write: write, Comp: r.comp, SrcID: c.SrcID})
		last = maxTick(last, done)
	}
	return last
}

func maxTick(a, b sim.Tick) sim.Tick {
	if a > b {
		return a
	}
	return b
}
