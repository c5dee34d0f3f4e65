// Package config defines the simulated system parameters from Table I of
// the paper and the two preset system configurations being compared: the
// discrete GPU system (separate CPU and GPU chips connected by PCIe) and the
// heterogeneous CPU-GPU processor (shared physical memory, cache coherent).
package config

import (
	"fmt"
	"math"

	"repro/internal/memory"
)

// Kind selects which of the paper's two system organizations to simulate.
type Kind int

const (
	// Discrete is the discrete GPU system: CPU DDR3 memory, GPU GDDR5
	// memory, explicit copies over PCIe, no CPU-GPU cache coherence.
	Discrete Kind = iota
	// Hetero is the heterogeneous CPU-GPU processor: one shared GDDR5
	// memory, coherent CPU and GPU caches, no copies needed.
	Hetero
)

// String names the system kind.
func (k Kind) String() string {
	if k == Discrete {
		return "discrete-gpu"
	}
	return "hetero-processor"
}

// CPUConfig describes the CPU cores and their private caches (Table I).
type CPUConfig struct {
	Cores         int     // 4
	ClockHz       float64 // 3.5 GHz
	IssueWidth    int     // 4-wide out-of-order
	FLOPsPerCycle int     // peak FLOPs issued per cycle per core (4 → 14 GFLOP/s)
	MLP           int     // max overlapped outstanding misses (OoO window effect)
	L1IBytes      int     // 32 kB
	L1DBytes      int     // 64 kB
	L2Bytes       int     // 256 kB private per core
	L1Assoc       int
	L2Assoc       int
	L1LatCycles   int // load-to-use on L1 hit
	L2LatCycles   int // additional L2 hit latency
}

// PeakFLOPs reports the aggregate peak FLOP/s across all CPU cores.
func (c CPUConfig) PeakFLOPs() float64 {
	return float64(c.Cores*c.FLOPsPerCycle) * c.ClockHz
}

// GPUConfig describes the GPU SMs and caches (Table I).
type GPUConfig struct {
	SMs              int     // 16
	ClockHz          float64 // 700 MHz
	WarpSize         int     // 32
	MaxWarpsPerSM    int     // 48
	MaxCTAsPerSM     int     // 8
	ScratchBytesPkSM int     // 48 kB scratch per SM
	Registers        int     // 32k registers per SM
	LanesPerCycle    int     // SIMT issue width (32 → 22.4 GFLOP/s per SM)
	L1Bytes          int     // 24 kB per SM (data+inst)
	L1Assoc          int
	L2Bytes          int // 1 MB shared
	L2Banks          int
	L2Assoc          int
	L1LatCycles      int
	L2LatCycles      int
}

// PeakFLOPs reports the aggregate peak GPU FLOP/s.
func (g GPUConfig) PeakFLOPs() float64 {
	return float64(g.SMs*g.LanesPerCycle) * g.ClockHz
}

// MemConfig describes one off-chip memory system.
type MemConfig struct {
	Name        string
	Channels    int
	BytesPerSec float64 // aggregate peak across channels
	LatencyNs   float64 // fixed access latency component
}

// PerChannelBW reports one channel's peak bandwidth.
func (m MemConfig) PerChannelBW() float64 { return m.BytesPerSec / float64(m.Channels) }

// PCIeConfig describes the CPU-GPU link of the discrete system.
type PCIeConfig struct {
	BytesPerSec float64 // 8 GB/s (v2.0 x16)
	LatencyUs   float64 // per-transfer setup latency
}

// VMConfig describes address translation behaviour.
type VMConfig struct {
	PageBytes int
	// GPUFaultToCPU: GPU page faults interrupt the CPU and are serviced
	// serially by it (heterogeneous processor, IOMMU-style). When false the
	// GPU handles its own minor faults cheaply (discrete GPU driver).
	GPUFaultToCPU    bool
	CPUFaultServUs   float64 // CPU handler occupancy per fault
	GPUFaultServNs   float64 // GPU-local fault cost (discrete)
	HandlerClearPage bool    // handler zeroes the page (CPU memory writes)
}

// FaultConfig describes deliberate hardware degradations injected into a
// run — the harness's fault-injection experiments use these to verify the
// analytical models degrade gracefully instead of crashing or emitting
// NaNs. The zero value injects nothing.
type FaultConfig struct {
	// PCIeBWFrac, when in (0,1), scales the copy engine's link bandwidth
	// to that fraction of peak (a throttled or degraded PCIe link).
	PCIeBWFrac float64
	// FaultLatMult, when > 1, multiplies page-fault service latency — both
	// the CPU handler occupancy (hetero) and the GPU-local cost (discrete)
	// — modelling a slow fault handler.
	FaultLatMult float64
	// DRAMStallChannel picks the channel of the GPU/shared memory stalled
	// for the window below (a wedged DRAM channel: accesses mapping to it
	// queue behind the stall).
	DRAMStallChannel int
	// DRAMStallStartUs/DRAMStallEndUs bound the stall window in simulated
	// microseconds; the stall is active only when end > start.
	DRAMStallStartUs float64
	DRAMStallEndUs   float64
}

// Active reports whether any fault is injected.
func (f FaultConfig) Active() bool {
	return f.PCIeThrottled() || f.FaultLatMult > 1 || f.DRAMStalled()
}

// PCIeThrottled reports whether the link-bandwidth fault is active.
func (f FaultConfig) PCIeThrottled() bool { return f.PCIeBWFrac > 0 && f.PCIeBWFrac < 1 }

// DRAMStalled reports whether the DRAM-channel fault is active.
func (f FaultConfig) DRAMStalled() bool { return f.DRAMStallEndUs > f.DRAMStallStartUs }

// System is a complete simulated system description.
type System struct {
	Kind      Kind
	LineBytes int // 128B cache lines throughout
	CPU       CPUConfig
	GPU       GPUConfig
	CPUMem    MemConfig  // discrete only
	GPUMem    MemConfig  // discrete: GPU memory; hetero: the single shared memory
	PCIe      PCIeConfig // discrete only
	VM        VMConfig
	// KernelLaunchNs is host-side launch latency charged to the CPU per
	// kernel or copy launch; this is the Cserial ingredient of Eq. 1.
	KernelLaunchNs float64
	// SwitchLatNs is the L2<->memory-controller interconnect hop latency.
	SwitchLatNs float64
	// CacheToCacheNs is the latency of a coherent cache-to-cache transfer in
	// the heterogeneous processor.
	CacheToCacheNs float64
	// NoCoherence disables CPU-GPU cache-to-cache transfers in the
	// heterogeneous processor (ablation knob): every read miss goes to
	// DRAM even when a peer cache holds the line.
	NoCoherence bool
	// Faults carries injected hardware degradations (zero value: none).
	Faults FaultConfig
}

// Unified reports whether CPU and GPU share one physical memory space.
func (s System) Unified() bool { return s.Kind == Hetero }

const (
	kB = 1024
	mB = 1024 * kB
)

func baseCPU() CPUConfig {
	return CPUConfig{
		Cores:         4,
		ClockHz:       3.5e9,
		IssueWidth:    4,
		FLOPsPerCycle: 4, // 14 GFLOP/s peak per core
		MLP:           8,
		L1IBytes:      32 * kB,
		L1DBytes:      64 * kB,
		L2Bytes:       256 * kB,
		L1Assoc:       8,
		L2Assoc:       8,
		L1LatCycles:   4,
		L2LatCycles:   12,
	}
}

func baseGPU() GPUConfig {
	return GPUConfig{
		SMs:              16,
		ClockHz:          700e6,
		WarpSize:         32,
		MaxWarpsPerSM:    48,
		MaxCTAsPerSM:     8,
		ScratchBytesPkSM: 48 * kB,
		Registers:        32 * 1024,
		LanesPerCycle:    32, // 22.4 GFLOP/s peak per SM
		L1Bytes:          24 * kB,
		L1Assoc:          6,
		L2Bytes:          1 * mB,
		L2Banks:          4,
		L2Assoc:          16,
		L1LatCycles:      28,
		L2LatCycles:      120,
	}
}

// DiscreteGPU returns the Table I discrete GPU system.
func DiscreteGPU() System {
	return System{
		Kind:      Discrete,
		LineBytes: 128,
		CPU:       baseCPU(),
		GPU:       baseGPU(),
		CPUMem:    MemConfig{Name: "DDR3-1600", Channels: 2, BytesPerSec: 24e9, LatencyNs: 55},
		GPUMem:    MemConfig{Name: "GDDR5", Channels: 4, BytesPerSec: 179e9, LatencyNs: 70},
		PCIe:      PCIeConfig{BytesPerSec: 8e9, LatencyUs: 1.5},
		VM: VMConfig{
			PageBytes:      4096,
			GPUFaultToCPU:  false,
			GPUFaultServNs: 200,
		},
		KernelLaunchNs: 5000, // ~5us driver launch overhead
		SwitchLatNs:    6,
		CacheToCacheNs: 0, // no CPU-GPU coherence in the discrete system
	}
}

// HeteroProcessor returns the Table I heterogeneous CPU-GPU processor. CPU
// and GPU cores share the GDDR5 memory through a high-bandwidth 12-port
// switch and are cache coherent.
func HeteroProcessor() System {
	s := System{
		Kind:      Hetero,
		LineBytes: 128,
		CPU:       baseCPU(),
		GPU:       baseGPU(),
		GPUMem:    MemConfig{Name: "shared GDDR5", Channels: 4, BytesPerSec: 179e9, LatencyNs: 70},
		VM: VMConfig{
			PageBytes:        4096,
			GPUFaultToCPU:    true,
			CPUFaultServUs:   2.0,
			HandlerClearPage: true,
		},
		KernelLaunchNs: 2000, // no PCIe doorbell round trip
		SwitchLatNs:    4,
		CacheToCacheNs: 40,
	}
	return s
}

// Validate checks internal consistency of a System and returns a descriptive
// error for the first problem found.
func (s System) Validate() error {
	switch {
	case s.LineBytes <= 0 || s.LineBytes&(s.LineBytes-1) != 0:
		return fmt.Errorf("LineBytes %d must be a positive power of two", s.LineBytes)
	case s.CPU.Cores <= 0:
		return fmt.Errorf("need at least one CPU core")
	case s.GPU.SMs <= 0:
		return fmt.Errorf("need at least one GPU SM")
	case s.GPU.WarpSize <= 0:
		return fmt.Errorf("warp size must be positive")
	case s.GPUMem.Channels <= 0 || s.GPUMem.BytesPerSec <= 0:
		return fmt.Errorf("GPU/shared memory misconfigured: %+v", s.GPUMem)
	case s.VM.PageBytes < s.LineBytes:
		return fmt.Errorf("page size %d smaller than line size %d", s.VM.PageBytes, s.LineBytes)
	case s.VM.PageBytes&(s.VM.PageBytes-1) != 0:
		return fmt.Errorf("page size %d must be a power of two", s.VM.PageBytes)
	}
	// Every simulated cache must be a whole number of sets, each of at most
	// memory.MaxAssoc ways. (L1IBytes is reported but not simulated.)
	for _, c := range []struct {
		name         string
		bytes, assoc int
	}{
		{"CPU L1D", s.CPU.L1DBytes, s.CPU.L1Assoc},
		{"CPU L2", s.CPU.L2Bytes, s.CPU.L2Assoc},
		{"GPU L1", s.GPU.L1Bytes, s.GPU.L1Assoc},
		{"GPU L2", s.GPU.L2Bytes, s.GPU.L2Assoc},
	} {
		switch {
		case c.assoc < 1 || c.assoc > memory.MaxAssoc:
			return fmt.Errorf("%s associativity %d must be in [1, %d]", c.name, c.assoc, memory.MaxAssoc)
		case c.bytes <= 0 || c.bytes%(c.assoc*s.LineBytes) != 0:
			return fmt.Errorf("%s size %d B must be a positive multiple of %d ways x %d B lines",
				c.name, c.bytes, c.assoc, s.LineBytes)
		}
	}
	if s.Kind == Discrete {
		if s.CPUMem.Channels <= 0 || s.CPUMem.BytesPerSec <= 0 {
			return fmt.Errorf("discrete system needs CPU memory: %+v", s.CPUMem)
		}
		if s.PCIe.BytesPerSec <= 0 {
			return fmt.Errorf("discrete system needs a PCIe link")
		}
	}
	// Latencies must be well-formed: non-finite or negative values would
	// schedule events at garbage times. Zero stays valid (CacheToCacheNs
	// is legitimately 0 on the discrete system).
	switch {
	case !finite(s.SwitchLatNs) || !finite(s.KernelLaunchNs) || !finite(s.CacheToCacheNs) ||
		!finite(s.PCIe.LatencyUs) || !finite(s.VM.GPUFaultServNs) || !finite(s.VM.CPUFaultServUs):
		return fmt.Errorf("latency parameters must be finite")
	case s.SwitchLatNs < 0 || s.KernelLaunchNs < 0 || s.CacheToCacheNs < 0:
		return fmt.Errorf("latencies must not be negative: SwitchLatNs %v, KernelLaunchNs %v, CacheToCacheNs %v",
			s.SwitchLatNs, s.KernelLaunchNs, s.CacheToCacheNs)
	case s.PCIe.LatencyUs < 0 || s.VM.GPUFaultServNs < 0 || s.VM.CPUFaultServUs < 0:
		return fmt.Errorf("latencies must not be negative: PCIe.LatencyUs %v, VM.GPUFaultServNs %v, VM.CPUFaultServUs %v",
			s.PCIe.LatencyUs, s.VM.GPUFaultServNs, s.VM.CPUFaultServUs)
	}
	f := s.Faults
	// Reject NaN explicitly: a NaN fails every ordered comparison, so
	// without these guards NaN parameters would sail through the range
	// checks below and poison the simulated timings instead of failing
	// the run up front as a usage error.
	switch {
	case !finite(f.PCIeBWFrac) || !finite(f.FaultLatMult) ||
		!finite(f.DRAMStallStartUs) || !finite(f.DRAMStallEndUs):
		return fmt.Errorf("fault parameters must be finite: %+v", f)
	case f.PCIeBWFrac < 0 || f.PCIeBWFrac > 1:
		return fmt.Errorf("fault PCIeBWFrac %v must be in [0,1]", f.PCIeBWFrac)
	case f.FaultLatMult < 0:
		return fmt.Errorf("fault FaultLatMult %v must be >= 0", f.FaultLatMult)
	case f.DRAMStallStartUs < 0 || f.DRAMStallEndUs < 0:
		return fmt.Errorf("fault DRAM stall window [%v,%v)us must not be negative", f.DRAMStallStartUs, f.DRAMStallEndUs)
	case f.DRAMStallEndUs < f.DRAMStallStartUs:
		return fmt.Errorf("fault DRAM stall window [%v,%v)us inverted", f.DRAMStallStartUs, f.DRAMStallEndUs)
	case f.DRAMStalled() && (f.DRAMStallChannel < 0 || f.DRAMStallChannel >= s.GPUMem.Channels):
		return fmt.Errorf("fault DRAM stall channel %d out of range (memory has %d)", f.DRAMStallChannel, s.GPUMem.Channels)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
