package config

import (
	"math"
	"testing"

	"repro/internal/memory"
)

func TestPresetsValidate(t *testing.T) {
	for _, s := range []System{DiscreteGPU(), HeteroProcessor()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%v preset invalid: %v", s.Kind, err)
		}
	}
}

func TestTable1PeakRates(t *testing.T) {
	d := DiscreteGPU()
	// Table I: CPU cores are 14 GFLOP/s peak each.
	if got := d.CPU.PeakFLOPs() / float64(d.CPU.Cores); got != 14e9 {
		t.Fatalf("CPU per-core peak = %g, want 14e9", got)
	}
	// GPU SMs are 22.4 GFLOP/s peak each; 16 SMs total 358.4 GFLOP/s.
	if got := d.GPU.PeakFLOPs(); got != 358.4e9 {
		t.Fatalf("GPU peak = %g, want 358.4e9", got)
	}
	if d.CPUMem.BytesPerSec != 24e9 || d.GPUMem.BytesPerSec != 179e9 {
		t.Fatal("Table I memory bandwidths wrong")
	}
	if d.PCIe.BytesPerSec != 8e9 {
		t.Fatal("PCIe bandwidth wrong")
	}
}

func TestKindSemantics(t *testing.T) {
	if DiscreteGPU().Unified() {
		t.Fatal("discrete must not be unified")
	}
	if !HeteroProcessor().Unified() {
		t.Fatal("hetero must be unified")
	}
	if DiscreteGPU().Kind.String() != "discrete-gpu" || HeteroProcessor().Kind.String() != "hetero-processor" {
		t.Fatal("kind names wrong")
	}
}

func TestHeteroFaultModel(t *testing.T) {
	h := HeteroProcessor()
	if !h.VM.GPUFaultToCPU || h.VM.CPUFaultServUs <= 0 {
		t.Fatal("hetero must route GPU faults to the CPU")
	}
	d := DiscreteGPU()
	if d.VM.GPUFaultToCPU {
		t.Fatal("discrete GPU handles its own faults")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*System){
		func(s *System) { s.LineBytes = 100 },
		func(s *System) { s.LineBytes = 0 },
		func(s *System) { s.CPU.Cores = 0 },
		func(s *System) { s.GPU.SMs = 0 },
		func(s *System) { s.GPU.WarpSize = 0 },
		func(s *System) { s.GPUMem.Channels = 0 },
		func(s *System) { s.VM.PageBytes = 64 },
		func(s *System) { s.VM.PageBytes = 6000 },
		func(s *System) { s.CPUMem.BytesPerSec = 0 },
		func(s *System) { s.PCIe.BytesPerSec = 0 },
	}
	for i, mutate := range cases {
		s := DiscreteGPU()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: mutation not caught", i)
		}
	}
}

// TestValidateCacheGeometry checks that Validate, not the cache
// constructor, rejects a cache that is not a whole number of sets or whose
// associativity the cache's recency links cannot index.
func TestValidateCacheGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*System)
		ok     bool
	}{
		{"presets", func(*System) {}, true},
		{"CPU L1 assoc 0", func(s *System) { s.CPU.L1Assoc = 0 }, false},
		{"CPU L2 assoc negative", func(s *System) { s.CPU.L2Assoc = -8 }, false},
		{"GPU L1 assoc 0", func(s *System) { s.GPU.L1Assoc = 0 }, false},
		{"GPU L2 assoc above max", func(s *System) { s.GPU.L2Assoc = memory.MaxAssoc + 1 }, false},
		{"GPU L2 assoc at max", func(s *System) { s.GPU.L2Assoc, s.GPU.L2Bytes = memory.MaxAssoc, memory.MaxAssoc*128*4 }, true},
		{"GPU L1 24 kB at 5 ways", func(s *System) { s.GPU.L1Assoc = 5 }, false},
		{"CPU L1D smaller than a set", func(s *System) { s.CPU.L1DBytes = 512 }, false},
		{"CPU L2 zero", func(s *System) { s.CPU.L2Bytes = 0 }, false},
		{"GPU L2 negative", func(s *System) { s.GPU.L2Bytes = -1 << 20 }, false},
		{"GPU L2 not a whole set", func(s *System) { s.GPU.L2Bytes = 1<<20 + 128 }, false},
		{"1-way caches", func(s *System) { s.CPU.L1Assoc, s.CPU.L2Assoc, s.GPU.L1Assoc, s.GPU.L2Assoc = 1, 1, 1, 1 }, true},
		{"non-power-of-two sets", func(s *System) { s.GPU.L1Bytes = 12 * 6 * 128 }, true},
		// The capacities AblateGPUL2 sweeps.
		{"GPU L2 256 kB", func(s *System) { s.GPU.L2Bytes = 256 << 10 }, true},
		{"GPU L2 512 kB", func(s *System) { s.GPU.L2Bytes = 512 << 10 }, true},
		{"GPU L2 1 MB", func(s *System) { s.GPU.L2Bytes = 1 << 20 }, true},
		{"GPU L2 4 MB", func(s *System) { s.GPU.L2Bytes = 4 << 20 }, true},
	}
	for _, tc := range cases {
		for _, base := range []System{DiscreteGPU(), HeteroProcessor()} {
			tc.mutate(&base)
			if err := base.Validate(); (err == nil) != tc.ok {
				t.Errorf("%s on %s: Validate() = %v, want ok=%v", tc.name, base.Kind, err, tc.ok)
			}
		}
	}
}

// TestValidateFaultRanges range-checks every FaultConfig parameter,
// including the NaN/Inf values that slip silently through ordered
// comparisons — a NaN PCIe fraction must fail validation, not scale
// the link bandwidth to NaN mid-run.
func TestValidateFaultRanges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]FaultConfig{
		"pcie negative":        {PCIeBWFrac: -0.1},
		"pcie above one":       {PCIeBWFrac: 1.5},
		"pcie NaN":             {PCIeBWFrac: nan},
		"pcie Inf":             {PCIeBWFrac: inf},
		"latmult negative":     {FaultLatMult: -2},
		"latmult NaN":          {FaultLatMult: nan},
		"latmult Inf":          {FaultLatMult: inf},
		"window inverted":      {DRAMStallStartUs: 100, DRAMStallEndUs: 50},
		"window negative":      {DRAMStallStartUs: -100, DRAMStallEndUs: -50},
		"window start NaN":     {DRAMStallStartUs: nan, DRAMStallEndUs: 50},
		"window end Inf":       {DRAMStallStartUs: 0, DRAMStallEndUs: inf},
		"channel out of range": {DRAMStallStartUs: 0, DRAMStallEndUs: 100, DRAMStallChannel: 99},
		"channel negative":     {DRAMStallStartUs: 0, DRAMStallEndUs: 100, DRAMStallChannel: -1},
	}
	for name, f := range bad {
		s := DiscreteGPU()
		s.Faults = f
		if err := s.Validate(); err == nil {
			t.Errorf("%s: %+v not caught", name, f)
		}
	}
	good := map[string]FaultConfig{
		"none":           {},
		"quarter pcie":   {PCIeBWFrac: 0.25},
		"full pcie":      {PCIeBWFrac: 1},
		"slow faults":    {FaultLatMult: 8},
		"stalled window": {DRAMStallStartUs: 0, DRAMStallEndUs: 100, DRAMStallChannel: 1},
	}
	for name, f := range good {
		s := DiscreteGPU()
		s.Faults = f
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %+v wrongly rejected: %v", name, f, err)
		}
	}
}

func TestPerChannelBW(t *testing.T) {
	m := MemConfig{Channels: 4, BytesPerSec: 179e9}
	if got := m.PerChannelBW(); got != 179e9/4 {
		t.Fatalf("per-channel = %g", got)
	}
}

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("pcie=0.25,fault=8,dram=1:100:600")
	if err != nil {
		t.Fatal(err)
	}
	if f != (FaultConfig{PCIeBWFrac: 0.25, FaultLatMult: 8, DRAMStallChannel: 1, DRAMStallStartUs: 100, DRAMStallEndUs: 600}) {
		t.Fatalf("parsed = %+v", f)
	}
	if !f.Active() {
		t.Fatal("faults should be active")
	}
	// Round-trip through String.
	if rt, err := ParseFaults(f.String()); err != nil || rt != f {
		t.Fatalf("round trip: %+v vs %+v (%v)", rt, f, err)
	}
	// Empty and none inject nothing.
	for _, s := range []string{"", "none", "  "} {
		if f, err := ParseFaults(s); f != (FaultConfig{}) || err != nil {
			t.Fatalf("ParseFaults(%q) = %+v, %v", s, f, err)
		}
	}
	if s := (FaultConfig{}).String(); s != "none" {
		t.Fatalf("zero faults render %q, want none", s)
	}
	// Rejections.
	for _, s := range []string{
		"pcie=2", "pcie=0", "pcie=x", "fault=0.5", "dram=0:600:100",
		"dram=0:100", "bogus=1", "pcie", "dram=-1:0:100",
	} {
		if _, err := ParseFaults(s); err == nil {
			t.Fatalf("ParseFaults(%q) should fail", s)
		}
	}
}
