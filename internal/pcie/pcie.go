// Package pcie models the discrete GPU system's copy engine: a DMA unit
// moving data between CPU and GPU memories over a PCIe 2.0 x16 link (8 GB/s
// peak). Transfers serialize on the link, pace their DRAM accesses at link
// bandwidth, and attribute every off-chip access to the Copy component — the
// traffic the paper's Figures 4-6 charge to memory copies.
package pcie

import (
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// chunkLines is how many line transfers one pacing event covers; 32 lines =
// 4kB keeps the event count low while preserving bandwidth interleaving.
const chunkLines = 32

// Engine is the DMA copy engine.
type Engine struct {
	Eng       *sim.Engine
	Setup     sim.Tick // per-transfer latency (doorbell, descriptor fetch)
	LineBytes int
	Ctr       *stats.Counters
	Tr        *trace.Recorder // optional trace sink (nil-safe)

	perLine sim.Tick // link time per cache line
	link    sim.BusyModel

	cTransfers, cBytes stats.Counter // interned handles (see New)
}

// New builds a copy engine for a link of the given peak bandwidth.
func New(eng *sim.Engine, bytesPerSec float64, setup sim.Tick, lineBytes int, ctr *stats.Counters) *Engine {
	if ctr == nil {
		ctr = stats.NewCounters()
	}
	perLine := sim.Tick(float64(lineBytes) / bytesPerSec * float64(sim.Second))
	if perLine < 1 {
		perLine = 1
	}
	return &Engine{
		Eng: eng, Setup: setup, LineBytes: lineBytes, Ctr: ctr, perLine: perLine,
		cTransfers: ctr.Handle("pcie.transfers"),
		cBytes:     ctr.Handle("pcie.bytes"),
	}
}

// Transfer DMAs n bytes from src (read from srcMem) to dst (written to
// dstMem) starting no earlier than at. Transfers queue FIFO on the link.
// done receives the actual link occupancy interval.
func (e *Engine) Transfer(at sim.Tick, src, dst memory.Addr, n int, srcMem, dstMem memory.Port, done func(start, end sim.Tick)) {
	lines := memory.LinesSpanned(src, n, e.LineBytes)
	dur := e.Setup + sim.Tick(lines)*e.perLine
	start := e.link.Claim(at, dur)
	end := start + dur
	e.cTransfers.Inc()
	e.cBytes.Add(uint64(n))
	e.Tr.Span(stats.Copy, "PCIe link", "dma", "DMA transfer", start, end,
		trace.Arg{Key: "bytes", Val: n}, trace.Arg{Key: "lines", Val: lines})

	// Pace the line accesses across the transfer window in chunks.
	var emit func(lineIdx int)
	emit = func(lineIdx int) {
		t := start + e.Setup + sim.Tick(lineIdx)*e.perLine
		for i := 0; i < chunkLines && lineIdx < lines; i, lineIdx = i+1, lineIdx+1 {
			lt := start + e.Setup + sim.Tick(lineIdx)*e.perLine
			off := memory.Addr(lineIdx * e.LineBytes)
			srcMem.Access(lt, memory.Request{Addr: memory.LineAddr(src, e.LineBytes) + off, Comp: stats.Copy})
			dstMem.Access(lt, memory.Request{Addr: memory.LineAddr(dst, e.LineBytes) + off, Write: true, Comp: stats.Copy})
		}
		if lineIdx < lines {
			e.Eng.At(start+e.Setup+sim.Tick(lineIdx)*e.perLine, func() { emit(lineIdx) })
			return
		}
		_ = t
	}
	e.Eng.At(start+e.Setup, func() { emit(0) })
	e.Eng.At(end, func() { done(start, end) })
}

// BusyTime reports total link occupancy.
func (e *Engine) BusyTime() sim.Tick { return e.link.BusyTime() }

// Derate scales the link's effective bandwidth to frac of peak — the
// fault-injection hook for a throttled or degraded PCIe link. Fractions
// outside (0,1) leave the link at nominal bandwidth.
func (e *Engine) Derate(frac float64) {
	if frac <= 0 || frac >= 1 {
		return
	}
	e.perLine = sim.Tick(float64(e.perLine) / frac)
}
