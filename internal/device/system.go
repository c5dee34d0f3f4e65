// Package device assembles the simulated machine and exposes the CUDA-like
// runtime that benchmarks are written against: typed buffers, memcpy, GPU
// kernel launch with grid/block dimensions, multi-threaded CPU tasks, and
// dependency handles that subsume both CUDA streams (discrete system) and
// in-memory "data ready" signal variables (heterogeneous processor).
//
// Benchmarks execute functionally (real Go data, real results) while an
// access-recording layer produces the traces the timing models replay. All
// functional effects happen in dependency order during simulation, so
// results are deterministic and independent of the timing configuration.
package device

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpucore"
	"repro/internal/gpucore"
	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// System is one simulated machine plus the run state of a benchmark
// executing on it.
type System struct {
	Cfg config.System
	Eng *sim.Engine
	Col *core.Collector
	Ctr *stats.Counters
	// Tr is the run's trace sink, nil unless the system was built with
	// WithTrace. Every emission site is nil-safe, so untraced runs pay
	// only a nil check.
	Tr *trace.Recorder

	cpuSpace *memory.Space // discrete only; hetero aliases sharedSpace
	gpuSpace *memory.Space

	cpuDRAM *memory.DRAM // discrete only
	gpuDRAM *memory.DRAM // GPU memory, or the single shared memory

	cpuFabric *memory.Fabric
	gpuFabric *memory.Fabric // discrete only; hetero uses cpuFabric for all

	cores   []*cpucore.Core
	coreL1  []*memory.Cache
	coreL2  []*memory.Cache
	gpu     *gpucore.GPU
	gpuL1s  []*memory.Cache
	gpuL2   *memory.Cache
	dma     *pcie.Engine // discrete only
	vmm     *vm.Manager
	hostMux sim.BusyModel // serializes host-side launch overhead

	// CPU core pool scheduling.
	freeCores []int
	taskQueue []*cpuWork

	roiOpen bool

	// Intra-run parallel engine state. parReq is the -par value
	// (WithParallel); par is nil for serial runs.
	parReq int
	par    *sim.ParEngine

	// Result holds functional output digests the benchmark publishes with
	// AddResult. Correctness tests compare digests across run modes (every
	// organization of a benchmark must compute the same answer) and against
	// pure-Go reference implementations.
	Result []float64
}

// AddResult appends functional output digests for correctness checking.
func (s *System) AddResult(vals ...float64) { s.Result = append(s.Result, vals...) }

// ChecksumF32 digests a float32 slice (plain sum — enough to catch
// functional divergence between organizations).
func ChecksumF32(v []float32) float64 {
	var acc float64
	for _, x := range v {
		acc += float64(x)
	}
	return acc
}

// ChecksumI32 digests an int32 slice.
func ChecksumI32(v []int32) float64 {
	var acc float64
	for _, x := range v {
		acc += float64(x)
	}
	return acc
}

// Option customizes system construction.
type Option func(*System)

// WithTrace attaches a trace recorder: every hardware model in the built
// system emits its events into tr.
func WithTrace(tr *trace.Recorder) Option {
	return func(s *System) { s.Tr = tr }
}

// WithParallel requests intra-run parallelism: 0 or 1 is the serial
// engine; any par of 2 or more runs the timing thread plus one worker that
// generates and compiles CTAs ahead of it, in launch order. Results,
// counters, traces, and run records are byte-identical for every value —
// par is a scheduling knob, like a sweep's -jobs. A run that launches a
// persistent kernel stops pipelining at that launch and records the
// fallback.
func WithParallel(par int) Option {
	return func(s *System) { s.parReq = par }
}

// NewSystem builds and wires a machine from a validated configuration. An
// invalid configuration aborts with a *UsageError (use NewSystemErr for a
// plain error return).
func NewSystem(cfg config.System, opts ...Option) *System {
	s, err := NewSystemErr(cfg, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemErr builds and wires a machine, returning an error rather than
// aborting on an invalid configuration — the entry point the fault-tolerant
// harness uses.
func NewSystemErr(cfg config.System, opts ...Option) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &UsageError{Op: "NewSystem", Msg: "invalid config: " + err.Error()}
	}
	s := &System{
		Cfg: cfg,
		Eng: sim.NewEngine(),
		Ctr: stats.NewCounters(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.Col = core.NewCollector(cfg.LineBytes, cfg.GPUMem.BytesPerSec)
	s.Col.Tr = s.Tr
	s.Col.HW = s.Ctr

	line := cfg.LineBytes
	switchLat := sim.Tick(cfg.SwitchLatNs * float64(sim.Nanosecond))
	c2c := sim.Tick(cfg.CacheToCacheNs * float64(sim.Nanosecond))

	// Memories and fabrics.
	const gig = 1 << 30
	if cfg.Kind == config.Discrete {
		s.cpuSpace = memory.NewSpace("cpu-mem", 0, 4*gig, line)
		s.gpuSpace = memory.NewSpace("gpu-mem", 4*gig, 4*gig, line)
		s.cpuDRAM = memory.NewDRAM("ddr3", cfg.CPUMem.Channels, cfg.CPUMem.BytesPerSec,
			sim.Tick(cfg.CPUMem.LatencyNs*float64(sim.Nanosecond)), line, s.Ctr)
		s.gpuDRAM = memory.NewDRAM("gddr5", cfg.GPUMem.Channels, cfg.GPUMem.BytesPerSec,
			sim.Tick(cfg.GPUMem.LatencyNs*float64(sim.Nanosecond)), line, s.Ctr)
		s.cpuFabric = memory.NewFabric(memory.FabricConfig{
			Name: "cpu-switch", Lat: switchLat, Serv: line6PortServ(cfg), Coherent: true,
			C2CLat: 20 * sim.Nanosecond, DRAM: s.cpuDRAM, Counters: s.Ctr,
		})
		s.gpuFabric = memory.NewFabric(memory.FabricConfig{
			Name: "gpu-switch", Lat: switchLat, Serv: danceHallServ(cfg), Coherent: false,
			DRAM: s.gpuDRAM, Counters: s.Ctr,
		})
	} else {
		shared := memory.NewSpace("shared-mem", 0, 8*gig, line)
		s.cpuSpace, s.gpuSpace = shared, shared
		s.gpuDRAM = memory.NewDRAM("gddr5", cfg.GPUMem.Channels, cfg.GPUMem.BytesPerSec,
			sim.Tick(cfg.GPUMem.LatencyNs*float64(sim.Nanosecond)), line, s.Ctr)
		s.cpuFabric = memory.NewFabric(memory.FabricConfig{
			Name: "het-switch", Lat: switchLat, Serv: hetSwitchServ(cfg), Coherent: !cfg.NoCoherence,
			C2CLat: c2c, DRAM: s.gpuDRAM, Counters: s.Ctr,
		})
		s.gpuFabric = s.cpuFabric
	}
	s.gpuDRAM.OnAccess = s.Col.OnDRAM
	if s.cpuDRAM != nil {
		s.cpuDRAM.OnAccess = s.Col.OnDRAM
	}

	// Virtual memory. An injected handler fault multiplies service latency.
	s.vmm = vm.New(vm.Config{
		PageBytes:     cfg.VM.PageBytes,
		GPUFaultToCPU: cfg.VM.GPUFaultToCPU,
		CPUFaultServ:  sim.Tick(cfg.VM.CPUFaultServUs * float64(sim.Microsecond)),
		GPUFaultServ:  sim.Tick(cfg.VM.GPUFaultServNs * float64(sim.Nanosecond)),
		ServMult:      cfg.Faults.FaultLatMult,
	}, s.Ctr)
	s.vmm.Tr = s.Tr
	if cfg.VM.GPUFaultToCPU {
		s.vmm.OnCPUHandled = func(start, end sim.Tick, page memory.Addr) {
			s.Col.AddActivityNamed(stats.CPU, "page-fault handler", start, end)
			if cfg.VM.HandlerClearPage {
				// The handler zeroes the page: CPU-attributed DRAM writes.
				for a := page; a < page+memory.Addr(cfg.VM.PageBytes); a += memory.Addr(line) {
					s.cpuFabric.Access(start, memory.Request{Addr: a, Write: true, Writeback: true, Comp: stats.CPU, SrcID: -1})
					s.Col.Touch(stats.CPU, a, line)
				}
			}
		}
	}

	// CPU cores and their private caches.
	cpuClkServ := sim.NewClock(cfg.CPU.ClockHz).Cycles(1)
	for i := 0; i < cfg.CPU.Cores; i++ {
		l2 := memory.NewCache(memory.CacheConfig{
			Name: fmt.Sprintf("cpu%d.l2", i), SizeBytes: cfg.CPU.L2Bytes, Assoc: cfg.CPU.L2Assoc,
			LineBytes: line, Policy: memory.WriteBack,
			HitLat: sim.NewClock(cfg.CPU.ClockHz).Cycles(int64(cfg.CPU.L2LatCycles)),
			Serv:   cpuClkServ, Next: s.cpuFabric, SrcID: i, Counters: s.Ctr,
		})
		l1 := memory.NewCache(memory.CacheConfig{
			Name: fmt.Sprintf("cpu%d.l1d", i), SizeBytes: cfg.CPU.L1DBytes, Assoc: cfg.CPU.L1Assoc,
			LineBytes: line, Policy: memory.WriteBack,
			HitLat: sim.NewClock(cfg.CPU.ClockHz).Cycles(int64(cfg.CPU.L1LatCycles)),
			Serv:   cpuClkServ, Next: l2, SrcID: i, Counters: s.Ctr,
		})
		s.coreL1 = append(s.coreL1, l1)
		s.coreL2 = append(s.coreL2, l2)
		s.cpuFabric.Attach(memory.ProbeGroup{SrcID: i, Caches: []*memory.Cache{l2, l1}})
		s.cores = append(s.cores, &cpucore.Core{
			ID: i, Eng: s.Eng, Clk: sim.NewClock(cfg.CPU.ClockHz),
			IssueWidth: cfg.CPU.IssueWidth, FLOPsPerCycle: cfg.CPU.FLOPsPerCycle,
			MLP: cfg.CPU.MLP, Mem: l1, SrcID: i, VM: s.vmm, Ctr: s.Ctr, LineBytes: line,
			Tr: s.Tr,
		})
		s.freeCores = append(s.freeCores, i)
	}

	// GPU caches and SMs.
	gclk := sim.NewClock(cfg.GPU.ClockHz)
	s.gpuL2 = memory.NewCache(memory.CacheConfig{
		Name: "gpu.l2", SizeBytes: cfg.GPU.L2Bytes, Assoc: cfg.GPU.L2Assoc, LineBytes: line,
		Policy: memory.WriteBack, HitLat: gclk.Cycles(int64(cfg.GPU.L2LatCycles)),
		Serv: gclk.Cycles(1), Banks: cfg.GPU.L2Banks,
		Next: s.gpuFabric, SrcID: gpucore.SrcID(), Counters: s.Ctr,
	})
	if cfg.Kind == config.Hetero {
		s.cpuFabric.Attach(memory.ProbeGroup{SrcID: gpucore.SrcID(), Caches: []*memory.Cache{s.gpuL2}})
	}
	for i := 0; i < cfg.GPU.SMs; i++ {
		l1 := memory.NewCache(memory.CacheConfig{
			Name: fmt.Sprintf("gpu%d.l1", i), SizeBytes: cfg.GPU.L1Bytes, Assoc: cfg.GPU.L1Assoc,
			LineBytes: line, Policy: memory.WriteThroughNoAlloc,
			HitLat: gclk.Cycles(int64(cfg.GPU.L1LatCycles)), Serv: gclk.Cycles(1),
			Next: s.gpuL2, SrcID: gpucore.SrcID(), Counters: s.Ctr,
		})
		s.gpuL1s = append(s.gpuL1s, l1)
	}
	s.gpu = gpucore.New(s.Eng, cfg.GPU, s.gpuL1s, s.vmm, line, s.Ctr)
	s.gpu.Tr = s.Tr
	s.gpu.Foot = s.Col.Footprint()

	// Intra-run parallelism. The window (results the pipeline may hold
	// ahead of the timing thread) is sized to the device's resident-CTA
	// capacity: generation further ahead than the SMs could possibly
	// consume buys nothing and holds compiled programs live.
	if s.parReq >= 2 {
		window := min(max(cfg.GPU.MaxCTAsPerSM*cfg.GPU.SMs*2, 8), 512)
		s.par = sim.NewParEngine(window)
		s.gpu.UsePar(s.par)
	}

	// Copy engine: PCIe DMA in the discrete system. The heterogeneous
	// processor keeps an in-memory copy path for the few residual memcpys of
	// limited-copy benchmarks; a memory-to-memory DMA is bound by the shared
	// GDDR5 doing a read and a write per line, so its effective rate is a
	// fraction of peak.
	if cfg.Kind == config.Discrete {
		s.dma = pcie.New(s.Eng, cfg.PCIe.BytesPerSec,
			sim.Tick(cfg.PCIe.LatencyUs*float64(sim.Microsecond)), line, s.Ctr)
	} else {
		s.dma = pcie.New(s.Eng, cfg.GPUMem.BytesPerSec/4,
			1*sim.Microsecond, line, s.Ctr)
	}

	// Remaining injected hardware faults (the VM fault multiplier is wired
	// above): a throttled copy-engine link and a stalled channel of the
	// GPU/shared memory.
	if cfg.Faults.PCIeThrottled() {
		s.dma.Derate(cfg.Faults.PCIeBWFrac)
	}
	if cfg.Faults.DRAMStalled() {
		s.gpuDRAM.StallChannel(cfg.Faults.DRAMStallChannel,
			sim.Tick(cfg.Faults.DRAMStallStartUs*float64(sim.Microsecond)),
			sim.Tick(cfg.Faults.DRAMStallEndUs*float64(sim.Microsecond)))
	}
	s.dma.Tr = s.Tr
	for _, c := range s.allCaches() {
		c.Tr = s.Tr
	}
	return s, nil
}

// Unified reports whether CPU and GPU share physical memory.
func (s *System) Unified() bool { return s.Cfg.Unified() }

// line6PortServ sizes the discrete CPU switch: high bandwidth, effectively
// unthrottled relative to 24 GB/s DDR3.
func line6PortServ(cfg config.System) sim.Tick {
	return sim.Tick(float64(cfg.LineBytes) / 200e9 * float64(sim.Second))
}

// danceHallServ sizes the GPU L1-L2 dance-hall: far above GDDR5 bandwidth.
func danceHallServ(cfg config.System) sim.Tick {
	return sim.Tick(float64(cfg.LineBytes) / 500e9 * float64(sim.Second))
}

// hetSwitchServ sizes the heterogeneous processor's 12-port switch: high
// bandwidth so the shared GDDR5 remains the constraint.
func hetSwitchServ(cfg config.System) sim.Tick {
	return sim.Tick(float64(cfg.LineBytes) / 500e9 * float64(sim.Second))
}

// Release shuts down the parallel engine's workers, if any. Nil-safe and
// idempotent; the harness defers it so panicking runs (budget trips,
// interrupts) cannot leak worker goroutines.
func (s *System) Release() {
	if s != nil && s.par != nil {
		s.par.Release()
	}
}

// Report builds the analysis report for the finished run. For parallel
// runs it first quiesces the workers.
func (s *System) Report(bench, mode string) *core.Report {
	if s.par != nil {
		s.par.Release()
	}
	return core.BuildReport(s.Col, bench, s.Cfg.Kind.String(), mode,
		s.Cfg.CPU.PeakFLOPs(), s.Cfg.GPU.PeakFLOPs())
}

// flushGPUL1s writes back and clears the non-coherent per-SM L1s; called at
// kernel boundaries.
func (s *System) flushGPUL1s(now sim.Tick) {
	for _, l1 := range s.gpuL1s {
		l1.FlushAll(now)
	}
}
