package core

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestClassifierCompulsoryFirstTouch(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, false, 1)
	cl.Observe(1, false, 1)
	counts := cl.Counts()
	if counts[ClassCompulsory] != 2 || cl.Total() != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestClassifierRRContention(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, false, 1) // compulsory
	cl.Observe(0, false, 1) // re-read same stage
	if cl.Counts()[ClassRRContention] != 1 {
		t.Fatalf("counts = %v", cl.Counts())
	}
}

func TestClassifierRRSpill(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, false, 1)
	cl.Observe(0, false, 2) // next stage
	if cl.Counts()[ClassRRSpill] != 1 {
		t.Fatalf("counts = %v", cl.Counts())
	}
}

func TestClassifierLongRange(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, false, 1)
	cl.Observe(0, false, 5)
	if cl.Counts()[ClassLongRange] != 1 {
		t.Fatalf("counts = %v", cl.Counts())
	}
}

func TestClassifierWRSpillPairCountsBothSides(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, true, 1)  // producer writeback: provisionally compulsory
	cl.Observe(0, false, 2) // consumer read next stage
	counts := cl.Counts()
	// Both the write and the read become W-R spill accesses.
	if counts[ClassWRSpill] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[ClassCompulsory] != 0 {
		t.Fatalf("provisional write not reclassified: %v", counts)
	}
}

func TestClassifierLastWriteStaysCompulsory(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, false, 1) // first read: compulsory
	cl.Observe(0, true, 1)  // final writeback, never touched again
	counts := cl.Counts()
	if counts[ClassCompulsory] != 2 {
		t.Fatalf("last write must stay compulsory: %v", counts)
	}
}

func TestClassifierWRContentionThrash(t *testing.T) {
	cl := NewClassifier()
	cl.Observe(0, false, 3) // fetch (compulsory)
	cl.Observe(0, true, 3)  // writeback before uses complete
	cl.Observe(0, false, 3) // re-read same stage
	counts := cl.Counts()
	// The writeback resolves to W-R contention, and the re-read is W-R
	// contention too.
	if counts[ClassWRContention] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[ClassCompulsory] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// Property: counts always sum to Total, regardless of access pattern.
func TestClassifierConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cl := NewClassifier()
		stage := 1
		for _, op := range ops {
			if op%7 == 0 {
				stage++
			}
			cl.Observe(uint64(op%16), op%3 == 0, stage)
		}
		var sum uint64
		for _, v := range cl.Counts() {
			sum += v
		}
		return sum == cl.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComponentOverlapEq1(t *testing.T) {
	// C=100, Cserial=10, P=50, G=200 -> 10 + max(90,50,200) = 210.
	if got := ComponentOverlap(100, 10, 50, 200); got != 210 {
		t.Fatalf("Rco = %d", got)
	}
	// CPU-bound: C=300, Cserial=20, P=10, G=50 -> 20+280 = 300.
	if got := ComponentOverlap(300, 20, 10, 50); got != 300 {
		t.Fatalf("Rco = %d", got)
	}
	// Cserial larger than C clamps.
	if got := ComponentOverlap(5, 10, 0, 0); got != 5 {
		t.Fatalf("Rco = %d", got)
	}
}

func TestMigratedComputeEq24(t *testing.T) {
	// All-GPU work migrated onto CPU+GPU: Fcpu=56e9, Fgpu=358.4e9.
	in := MigratedComputeInputs{
		C: 0, P: 0, G: sim.FromSeconds(1.0),
		Fcpu: 56e9, Fgpu: 358.4e9,
		MemBytes: 0, PeakMemBW: 179e9,
	}
	got := MigratedCompute(in)
	want := sim.FromSeconds(358.4 / (56 + 358.4))
	if d := got - want; d < -sim.Microsecond || d > sim.Microsecond {
		t.Fatalf("Rmc_core = %v, want %v", got, want)
	}

	// Bandwidth bound dominates when M is huge.
	in.MemBytes = 1 << 40
	got = MigratedCompute(in)
	want = sim.FromSeconds(float64(uint64(1)<<40) / (0.82 * 179e9))
	if d := got - want; d < -sim.Microsecond || d > sim.Microsecond {
		t.Fatalf("Rmc_bw = %v, want %v", got, want)
	}

	// Copy bound dominates when P is huge.
	in.P = sim.FromSeconds(100)
	if got := MigratedCompute(in); got != in.P {
		t.Fatalf("Rmc should be copy-bound: %v", got)
	}
}

func TestOpportunityCost(t *testing.T) {
	// GPU idle the whole time, CPU busy the whole time.
	roi := sim.FromSeconds(1)
	got := OpportunityCost(roi, roi, 0, 56e9, 358.4e9)
	want := 358.4 / (56 + 358.4)
	if got < want-0.001 || got > want+0.001 {
		t.Fatalf("opp cost = %v, want %v", got, want)
	}
	if OpportunityCost(0, 0, 0, 1, 1) != 0 {
		t.Fatal("zero ROI should be 0")
	}
	// Fully busy -> zero cost.
	if OpportunityCost(roi, roi, roi, 56e9, 358.4e9) != 0 {
		t.Fatal("fully busy should be 0")
	}
}

func TestCollectorStagesAndTimeline(t *testing.T) {
	c := NewCollector(128, 179e9)
	c.BeginROI(0)
	s1 := c.StageBegin(StageCopy, "h2d", stats.Copy, 0, 10, 10)
	c.StageEnd(s1, 100, 0, 1024)
	s2 := c.StageBegin(StageKernel, "k", stats.GPU, 100, 10, 110)
	c.StageEnd(s2, 300, 5000, 0)
	s3 := c.StageBegin(StageCPU, "reduce", stats.CPU, 0, 0, 300)
	c.StageEnd(s3, 400, 100, 0)
	c.EndROI(400)

	r := BuildReport(c, "b", "sys", "copy", 56e9, 358.4e9)
	if r.ROI != 400 {
		t.Fatalf("ROI = %d", r.ROI)
	}
	if r.CopyActive != 90 || r.GPUActive != 190 || r.CPUActive != 100 {
		t.Fatalf("activity = %d/%d/%d", r.CopyActive, r.GPUActive, r.CPUActive)
	}
	if r.FLOPs[stats.GPU] != 5000 || r.FLOPs[stats.CPU] != 100 {
		t.Fatalf("flops = %v", r.FLOPs)
	}
	if r.Stages != 3 {
		t.Fatalf("stages = %d", r.Stages)
	}
	if r.Rco <= 0 || r.Rmc <= 0 {
		t.Fatal("estimates missing")
	}
	if len(r.String()) == 0 {
		t.Fatal("empty report string")
	}
}

func TestCollectorCserial(t *testing.T) {
	c := NewCollector(128, 179e9)
	c.BeginROI(0)
	// Launch window 0-10 with nothing running: fully serial.
	s1 := c.StageBegin(StageKernel, "k1", stats.GPU, 0, 10, 10)
	c.StageEnd(s1, 100, 0, 0)
	// Launch window 50-60 while k1 runs: fully masked.
	s2 := c.StageBegin(StageKernel, "k2", stats.GPU, 50, 10, 100)
	c.StageEnd(s2, 200, 0, 0)
	c.EndROI(200)
	if got := c.Cserial(); got != 10 {
		t.Fatalf("Cserial = %d, want 10", got)
	}
}

func TestCollectorFootprintPartition(t *testing.T) {
	c := NewCollector(128, 179e9)
	c.Touch(stats.CPU, 0, 256)    // lines 0,1
	c.Touch(stats.GPU, 128, 128)  // line 1 -> CPU+GPU
	c.Touch(stats.Copy, 512, 128) // line 4 -> Copy only
	p := c.FootprintPartition()
	if p[stats.ComponentSet(0).Set(stats.CPU)] != 128 {
		t.Fatalf("cpu-only = %d", p[stats.ComponentSet(0).Set(stats.CPU)])
	}
	if p[stats.ComponentSet(0).Set(stats.CPU).Set(stats.GPU)] != 128 {
		t.Fatal("cpu+gpu wrong")
	}
	if p[stats.ComponentSet(0).Set(stats.Copy)] != 128 {
		t.Fatal("copy-only wrong")
	}
	if c.FootprintBytes() != 3*128 {
		t.Fatalf("total = %d", c.FootprintBytes())
	}
}

func TestCollectorOnDRAMAndBWLimit(t *testing.T) {
	c := NewCollector(128, 128e9) // peak 128 GB/s
	c.BeginROI(0)
	s := c.StageBegin(StageKernel, "k", stats.GPU, 0, 0, 0)
	// 1e6 ps = 1us stage; issue 1000 line accesses = 128kB in 1us = 128 GB/s
	// achieved = 100% of peak -> above the 70% threshold.
	for i := 0; i < 1000; i++ {
		c.OnDRAM(sim.Tick(i*1000), memory.Request{Addr: memory.Addr(i * 128), Comp: stats.GPU})
	}
	c.StageEnd(s, sim.Tick(1e6), 0, 0)
	c.EndROI(sim.Tick(1e6))

	if got := c.DRAMAccesses()[stats.GPU]; got != 1000 {
		t.Fatalf("gpu dram accesses = %d", got)
	}
	if frac := c.BWLimitedFraction(0.70); frac < 0.99 {
		t.Fatalf("bw-limited frac = %v", frac)
	}
	if frac := c.BWLimitedFraction(1.5); frac != 0 {
		t.Fatalf("threshold above achieved should yield 0, got %v", frac)
	}
}
