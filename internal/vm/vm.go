// Package vm models address translation at page granularity — specifically
// the behaviour the paper calls out: in the heterogeneous processor, CPU and
// GPU share one page table, so GPU page faults interrupt the CPU and are
// serviced *serially* by a software handler (IOMMU-style, as in gem5-gpu).
// In the discrete system the GPU driver maps pages itself while the copy
// engine or GPU runs, so minor faults are nearly free.
//
// TLBs are not modelled separately; the paper quantifies fault-handling
// cost, not TLB reach, and our page-presence check captures exactly that.
package vm

import (
	"math/bits"

	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Manager tracks page mappings for one simulated machine.
type Manager struct {
	pageBytes  int
	pageShift  uint
	mapped     memory.Table[bool] // indexed by page number
	faultToCPU bool
	cpuServ    sim.Tick
	gpuServ    sim.Tick
	handler    sim.BusyModel // serializes the CPU fault handler
	ctr        *stats.Counters

	// Interned fault-counter handles, resolved once in New.
	cCPUMinor, cGPULocal, cGPUToCPU stats.Counter

	// Tr is the optional trace sink (nil-safe). Fault events are emitted
	// at most once per page — the first-touch walk — so trace size is
	// bounded by the footprint, not the access count.
	Tr *trace.Recorder

	// OnCPUHandled observes each CPU-serviced fault's handler occupancy so
	// the device layer can log CPU activity (and page-clearing writes, which
	// shift memory accesses from GPU to CPU as the paper observed for srad).
	OnCPUHandled func(start, end sim.Tick, pageBase memory.Addr)
}

// Config carries the subset of config.VMConfig the manager needs.
type Config struct {
	PageBytes     int
	GPUFaultToCPU bool
	CPUFaultServ  sim.Tick
	GPUFaultServ  sim.Tick
	// ServMult scales both fault service latencies — the fault-injection
	// hook for a degraded (slow) page-fault handler. Values <= 0 mean
	// nominal (1x).
	ServMult float64
}

// New builds a Manager.
func New(cfg Config, ctr *stats.Counters) *Manager {
	if ctr == nil {
		ctr = stats.NewCounters()
	}
	if cfg.ServMult > 0 {
		cfg.CPUFaultServ = sim.Tick(float64(cfg.CPUFaultServ) * cfg.ServMult)
		cfg.GPUFaultServ = sim.Tick(float64(cfg.GPUFaultServ) * cfg.ServMult)
	}
	return &Manager{
		pageBytes:  cfg.PageBytes,
		pageShift:  uint(bits.TrailingZeros(uint(cfg.PageBytes))),
		faultToCPU: cfg.GPUFaultToCPU,
		cpuServ:    cfg.CPUFaultServ,
		gpuServ:    cfg.GPUFaultServ,
		ctr:        ctr,
		cCPUMinor:  ctr.Handle("vm.cpu_minor_faults"),
		cGPULocal:  ctr.Handle("vm.gpu_local_faults"),
		cGPUToCPU:  ctr.Handle("vm.gpu_faults_to_cpu"),
	}
}

// Counters exposes fault counters.
func (m *Manager) Counters() *stats.Counters { return m.ctr }

// PageBytes reports the page size.
func (m *Manager) PageBytes() int { return m.pageBytes }

func (m *Manager) pageOf(addr memory.Addr) memory.Addr {
	return addr &^ memory.Addr(m.pageBytes-1)
}

// MapRange marks [base, base+size) resident with no cost — used for pages
// the host touched before the ROI and for copy-engine implicit mappings.
func (m *Manager) MapRange(base memory.Addr, size int) {
	for p := m.pageOf(base); p < base+memory.Addr(size); p += memory.Addr(m.pageBytes) {
		*m.mapped.At(uint64(p) >> m.pageShift) = true
	}
}

// Mapped reports whether addr's page is resident.
func (m *Manager) Mapped(addr memory.Addr) bool {
	return *m.mapped.At(uint64(addr) >> m.pageShift)
}

// Translate resolves addr for an access at time now and returns when the
// translation is ready. CPU minor faults map immediately (the host OS path
// is cheap relative to everything the paper measures). GPU faults either
// queue on the serial CPU handler (heterogeneous processor) or cost a small
// fixed GPU-local service time (discrete GPU driver).
func (m *Manager) Translate(now sim.Tick, addr memory.Addr, fromGPU bool) sim.Tick {
	mapped := m.mapped.At(uint64(addr) >> m.pageShift)
	if *mapped {
		return now
	}
	*mapped = true
	page := m.pageOf(addr)
	if !fromGPU {
		m.cCPUMinor.Inc()
		m.Tr.Instant(stats.CPU, "VM", "fault", "cpu minor fault", now,
			trace.Arg{Key: "page", Val: uint64(page)})
		return now
	}
	if !m.faultToCPU {
		m.cGPULocal.Inc()
		m.Tr.Span(stats.GPU, "VM", "fault", "gpu local fault", now, now+m.gpuServ,
			trace.Arg{Key: "page", Val: uint64(page)})
		return now + m.gpuServ
	}
	m.cGPUToCPU.Inc()
	start := m.handler.Claim(now, m.cpuServ)
	end := start + m.cpuServ
	m.Tr.Span(stats.CPU, "VM handler", "fault", "gpu fault to cpu", start, end,
		trace.Arg{Key: "page", Val: uint64(page)})
	if m.OnCPUHandled != nil {
		m.OnCPUHandled(start, end, page)
	}
	return end
}

// HandlerBusyTime reports total CPU fault-handler occupancy.
func (m *Manager) HandlerBusyTime() sim.Tick { return m.handler.BusyTime() }
