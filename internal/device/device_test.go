package device

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func discrete() *System { return NewSystem(config.DiscreteGPU()) }
func hetero() *System   { return NewSystem(config.HeteroProcessor()) }

func TestAllocAndBufferViews(t *testing.T) {
	s := discrete()
	h := AllocBuf[float32](s, 1024, "h", Host)
	d := AllocBuf[float32](s, 1024, "d", Device)
	if h.Len() != 1024 || h.ElemSize() != 4 {
		t.Fatalf("len/elem = %d/%d", h.Len(), h.ElemSize())
	}
	if h.A.Base%128 != 0 || d.A.Base%128 != 0 {
		t.Fatal("allocations not line-aligned")
	}
	if h.A.Base >= d.A.Base {
		t.Fatal("host and device spaces overlap")
	}
	m := AllocBuf[float32](s, 16, "m", Host, Misaligned())
	if m.A.Base%128 == 0 {
		t.Fatal("misaligned alloc is aligned")
	}
}

func TestHeteroSharedSpace(t *testing.T) {
	s := hetero()
	h := AllocBuf[float32](s, 16, "h", Host)
	d := AllocBuf[float32](s, 16, "d", Device)
	// Same space: consecutive allocations.
	if d.A.Base-h.A.Base >= 1<<30 {
		t.Fatal("hetero allocations not in one space")
	}
	if !s.Unified() {
		t.Fatal("hetero must be unified")
	}
}

func TestMemcpyMovesDataAndTime(t *testing.T) {
	s := discrete()
	h := AllocBuf[float32](s, 1<<16, "h", Host)
	d := AllocBuf[float32](s, 1<<16, "d", Device)
	for i := range h.V {
		h.V[i] = float32(i)
	}
	s.BeginROI()
	Memcpy(s, d, h)
	s.EndROI()

	if d.V[100] != 100 || d.V[65535] != 65535 {
		t.Fatal("memcpy did not move data")
	}
	// 256kB over 8 GB/s ~= 32.8us.
	rep := s.Report("t", "copy")
	if rep.CopyActive <= 0 {
		t.Fatal("no copy activity recorded")
	}
	us := rep.CopyActive.Micros()
	if us < 25 || us > 50 {
		t.Fatalf("copy time = %v us, want ~33", us)
	}
	if rep.DRAMAccesses[stats.Copy] == 0 {
		t.Fatal("copy DRAM accesses missing")
	}
}

func TestKernelFunctionalAndTiming(t *testing.T) {
	for _, sys := range []*System{discrete(), hetero()} {
		s := sys
		n := 4096
		a := AllocBuf[float32](s, n, "a", Host)
		b := AllocBuf[float32](s, n, "b", Host)
		for i := range a.V {
			a.V[i] = float32(i)
		}
		s.BeginROI()
		da, _ := ToDevice(s, a)
		db, _ := ToDevice(s, b)
		s.Drain()
		s.Launch(KernelSpec{
			Name: "scale", Grid: n / 256, Block: 256,
			Func: func(th *Thread) {
				i := th.Global()
				v := Ld(th, da, i)
				th.FLOP(1)
				St(th, db, i, v*2)
			},
		})
		FromDevice(s, b, db)
		s.EndROI()
		if b.V[1000] != 2000 {
			t.Fatalf("%s: kernel result wrong: %v", s.Cfg.Kind, b.V[1000])
		}
		rep := s.Report("scale", "x")
		if rep.GPUActive <= 0 {
			t.Fatalf("%s: no GPU activity", s.Cfg.Kind)
		}
		if rep.FLOPs[stats.GPU] != uint64(n) {
			t.Fatalf("%s: GPU flops = %d", s.Cfg.Kind, rep.FLOPs[stats.GPU])
		}
	}
}

func TestUnifiedEliminatesCopies(t *testing.T) {
	s := hetero()
	a := AllocBuf[float32](s, 1024, "a", Host)
	da, h := ToDevice(s, a)
	if da != a || h != nil {
		t.Fatal("ToDevice must alias in unified memory")
	}
	done := FromDevice(s, a, da)
	s.Wait(done)
	rep := s.Report("t", "limited")
	if rep.CopyActive != 0 {
		t.Fatal("unified system recorded copy activity")
	}
}

func TestCPUTaskRunsAndUsesCores(t *testing.T) {
	s := discrete()
	n := 1 << 14
	a := AllocBuf[float32](s, n, "a", Host)
	sum := make([]float64, 4)
	s.BeginROI()
	s.CPUTask(CPUTaskSpec{
		Name: "sum", Threads: 4,
		Func: func(c *CPUThread) {
			lo, hi := c.TID()*n/4, (c.TID()+1)*n/4
			var acc float64
			for i := lo; i < hi; i++ {
				acc += float64(Ld(c, a, i))
				c.FLOP(1)
			}
			sum[c.TID()] = acc
		},
	})
	s.EndROI()
	rep := s.Report("t", "x")
	if rep.CPUActive <= 0 {
		t.Fatal("no CPU activity")
	}
	if rep.FLOPs[stats.CPU] != uint64(n) {
		t.Fatalf("cpu flops = %d", rep.FLOPs[stats.CPU])
	}
}

func TestCPUTaskQueueingBeyondCores(t *testing.T) {
	s := discrete()
	// 8 threads on 4 cores must all run.
	ran := make([]bool, 8)
	s.CPUTask(CPUTaskSpec{
		Name: "q", Threads: 8,
		Func: func(c *CPUThread) {
			c.FLOP(1000)
			ran[c.TID()] = true
		},
	})
	for i, r := range ran {
		if !r {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

// TestCPUTracesRecycled runs a task of long traces, then, on a fresh
// system, a task of short ones, both with more threads than cores, so the
// short threads record into traces the long ones returned. Every count
// must be exactly the short task's own: nothing of a recycled trace may
// replay or reach the footprint.
func TestCPUTracesRecycled(t *testing.T) {
	const threads, longOps, lineBytes = 8, 4096, 128
	cpuTask := func(s *System, name string, body func(c *CPUThread)) (traceOps, foot uint64) {
		s.CPUTask(CPUTaskSpec{Name: name, Threads: threads, Func: body})
		return s.Ctr.Get("cpu.trace_ops"), s.Col.FootprintBytes()
	}

	s := discrete()
	if threads <= s.Cfg.CPU.Cores {
		t.Fatalf("need more threads than the %d cores", s.Cfg.CPU.Cores)
	}
	a := AllocBuf[float32](s, threads*longOps, "a", Host)
	ops, foot := cpuTask(s, "long", func(c *CPUThread) {
		for i := 0; i < longOps; i++ {
			Ld(c, a, c.TID()*longOps+i)
			c.FLOP(1)
		}
	})
	if want := uint64(threads * longOps * 2); ops != want {
		t.Fatalf("long task: %d trace ops, want %d", ops, want)
	}
	if want := uint64(a.Len() * 4); foot != want {
		t.Fatalf("long task: footprint %d bytes, want %d", foot, want)
	}

	s = discrete()
	b := AllocBuf[float32](s, threads*longOps, "b", Host)
	ops, foot = cpuTask(s, "short", func(c *CPUThread) {
		Ld(c, b, c.TID()*lineBytes/4) // one line per thread
		c.FLOP(1)
	})
	if want := uint64(threads * 2); ops != want {
		t.Fatalf("short task: %d trace ops, want %d", ops, want)
	}
	if want := uint64(threads * lineBytes); foot != want {
		t.Fatalf("short task: footprint %d bytes, want %d", foot, want)
	}
}

func TestDependenciesOrderOps(t *testing.T) {
	s := hetero()
	a := AllocBuf[int32](s, 1024, "a", Host)
	var order []string
	h1 := s.LaunchAsync(KernelSpec{
		Name: "p", Grid: 4, Block: 256,
		Func: func(th *Thread) { St(th, a, th.Global(), int32(th.Global())) },
	})
	h1.whenDone(func(t sim.Tick) { order = append(order, "p") })
	h2 := s.CPUTaskAsync(CPUTaskSpec{
		Name: "c", Threads: 1,
		Func: func(c *CPUThread) {
			// Consumer sees producer's functional writes.
			if Ld(c, a, 512) != 512 {
				panic("dependency order violated functionally")
			}
		},
	}, h1)
	h2.whenDone(func(t sim.Tick) { order = append(order, "c") })
	s.Wait(h2)
	if len(order) != 2 || order[0] != "p" || order[1] != "c" {
		t.Fatalf("order = %v", order)
	}
	if h2.End() <= h1.End() {
		t.Fatal("consumer must end after producer")
	}
}

func TestAsyncOverlapBeatsSerial(t *testing.T) {
	// Two independent kernels launched async should overlap with a copy.
	mk := func() (*System, *Buf[float32], *Buf[float32], *Buf[float32]) {
		s := discrete()
		h := AllocBuf[float32](s, 1<<16, "h", Host)
		d1 := AllocBuf[float32](s, 1<<16, "d1", Device)
		d2 := AllocBuf[float32](s, 1<<16, "d2", Device)
		return s, h, d1, d2
	}
	kern := func(d *Buf[float32]) KernelSpec {
		return KernelSpec{Name: "k", Grid: 64, Block: 256, Func: func(th *Thread) {
			i := th.Global()
			v := Ld(th, d, i)
			th.FLOP(64)
			St(th, d, i, v+1)
		}}
	}
	// Serial: copy then kernel.
	s1, h1, d1, _ := mk()
	s1.BeginROI()
	s1.Wait(MemcpyAsync(s1, d1, h1))
	s1.Launch(kern(d1))
	s1.EndROI()
	serial := s1.Report("t", "serial").ROI

	// Overlapped: independent copy and kernel (kernel on other buffer).
	s2, h2, d21, d22 := mk()
	s2.BeginROI()
	hc := MemcpyAsync(s2, d21, h2)
	hk := s2.LaunchAsync(kern(d22))
	s2.Wait(hc)
	s2.Wait(hk)
	s2.EndROI()
	overlap := s2.Report("t", "overlap").ROI

	if overlap >= serial {
		t.Fatalf("no overlap: serial %v, overlap %v", serial, overlap)
	}
}

func TestDiscreteCopyInvalidatesCPUCache(t *testing.T) {
	s := discrete()
	n := 1 << 12 // 16kB fits in L1D
	hbuf := AllocBuf[float32](s, n, "h", Host)
	dbuf := AllocBuf[float32](s, n, "d", Device)

	// Warm CPU cache.
	s.CPUTask(CPUTaskSpec{Name: "warm", Threads: 1, Func: func(c *CPUThread) {
		for i := 0; i < n; i++ {
			Ld(c, hbuf, i)
		}
	}})
	missesBefore := s.Ctr.Get("cpu0.l1d.misses") + s.Ctr.Get("cpu1.l1d.misses") +
		s.Ctr.Get("cpu2.l1d.misses") + s.Ctr.Get("cpu3.l1d.misses")

	// D2H copy into the host buffer invalidates it everywhere.
	Memcpy(s, hbuf, dbuf)

	// Re-read: all misses again on whichever core runs it.
	s.CPUTask(CPUTaskSpec{Name: "reread", Threads: 1, Func: func(c *CPUThread) {
		for i := 0; i < n; i++ {
			Ld(c, hbuf, i)
		}
	}})
	missesAfter := s.Ctr.Get("cpu0.l1d.misses") + s.Ctr.Get("cpu1.l1d.misses") +
		s.Ctr.Get("cpu2.l1d.misses") + s.Ctr.Get("cpu3.l1d.misses")
	lines := uint64(n * 4 / 128)
	if missesAfter-missesBefore < lines {
		t.Fatalf("copy did not invalidate: %d new misses, want >= %d", missesAfter-missesBefore, lines)
	}
}

func TestHeteroCacheCoherentSharing(t *testing.T) {
	s := hetero()
	n := 1 << 10 // 4kB: fits easily in GPU L2
	b := AllocBuf[float32](s, n, "b", Host)
	s.BeginROI()
	// GPU produces.
	s.Launch(KernelSpec{Name: "prod", Grid: 4, Block: 256, Func: func(th *Thread) {
		St(th, b, th.Global(), float32(th.Global()))
	}})
	// CPU consumes immediately: should hit cache-to-cache, not DRAM.
	s.CPUTask(CPUTaskSpec{Name: "cons", Threads: 1, Func: func(c *CPUThread) {
		for i := 0; i < n; i++ {
			if Ld(c, b, i) != float32(i) {
				panic("wrong data")
			}
		}
	}})
	s.EndROI()
	if got := s.Ctr.Get("het-switch.c2c_transfers"); got == 0 {
		t.Fatal("expected cache-to-cache transfers in hetero")
	}
}

func TestGPUPageFaultsInHetero(t *testing.T) {
	s := hetero()
	// Device (untouched) allocation: GPU first touch faults to the CPU.
	d := AllocBuf[float32](s, 1<<14, "tmp", Device)
	s.BeginROI()
	s.Launch(KernelSpec{Name: "w", Grid: 16, Block: 256, Func: func(th *Thread) {
		St(th, d, th.Global(), 1)
	}})
	s.EndROI()
	if s.Ctr.Get("vm.gpu_faults_to_cpu") == 0 {
		t.Fatal("no GPU faults raised")
	}
	rep := s.Report("t", "x")
	if rep.CPUActive == 0 {
		t.Fatal("fault handling must show as CPU activity")
	}
}

func TestDiscreteNoGPUFaultCost(t *testing.T) {
	s := discrete()
	d := AllocBuf[float32](s, 1<<14, "tmp", Device)
	s.Launch(KernelSpec{Name: "w", Grid: 16, Block: 256, Func: func(th *Thread) {
		St(th, d, th.Global(), 1)
	}})
	if s.Ctr.Get("vm.gpu_faults_to_cpu") != 0 {
		t.Fatal("discrete GPU must not fault to CPU")
	}
}

func TestStageRecording(t *testing.T) {
	s := discrete()
	h := AllocBuf[float32](s, 1<<12, "h", Host)
	d := AllocBuf[float32](s, 1<<12, "d", Device)
	s.BeginROI()
	Memcpy(s, d, h)
	s.Launch(KernelSpec{Name: "k", Grid: 4, Block: 256, Func: func(th *Thread) {
		Ld(th, d, th.Global())
	}})
	s.CPUTask(CPUTaskSpec{Name: "c", Threads: 1, Func: func(c *CPUThread) { c.FLOP(10) }})
	s.EndROI()
	if len(s.Col.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(s.Col.Stages))
	}
	kinds := []core.StageKind{core.StageCopy, core.StageKernel, core.StageCPU}
	for i, st := range s.Col.Stages {
		if st.Kind != kinds[i] {
			t.Fatalf("stage %d kind = %v", i, st.Kind)
		}
		if st.End <= st.Start && st.Kind != core.StageCPU {
			t.Fatalf("stage %d has no duration", i)
		}
	}
}

func TestReportSanity(t *testing.T) {
	s := discrete()
	h := AllocBuf[float32](s, 1<<14, "h", Host)
	d := AllocBuf[float32](s, 1<<14, "d", Device)
	for i := range h.V {
		h.V[i] = 1
	}
	s.BeginROI()
	Memcpy(s, d, h)
	s.Launch(KernelSpec{Name: "k", Grid: 16, Block: 256, Func: func(th *Thread) {
		v := Ld(th, d, th.Global())
		th.FLOP(8)
		St(th, d, th.Global(), v+1)
	}})
	Memcpy(s, h, d)
	s.EndROI()
	rep := s.Report("sanity", "copy")
	if rep.ROI <= 0 {
		t.Fatal("no ROI")
	}
	if rep.FootprintBytes == 0 {
		t.Fatal("no footprint")
	}
	if rep.TotalDRAM() == 0 {
		t.Fatal("no DRAM accesses")
	}
	// The copy component must own a visible share of accesses.
	if rep.DRAMAccesses[stats.Copy] == 0 {
		t.Fatal("no copy accesses")
	}
	if rep.GPUUtil <= 0 || rep.GPUUtil > 1 {
		t.Fatalf("gpu util = %v", rep.GPUUtil)
	}
	if rep.Rco <= 0 || rep.Rco > rep.ROI {
		t.Fatalf("Rco = %v vs ROI %v", rep.Rco, rep.ROI)
	}
}
