package device

import (
	"testing"

	"repro/internal/config"
)

// BenchmarkKernelRoundTrip measures end-to-end simulated-kernel cost:
// launch, 16k threads with one load and one store each, completion.
func BenchmarkKernelRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSystem(config.HeteroProcessor())
		buf := AllocBuf[float32](s, 1<<14, "b", Host)
		s.Launch(KernelSpec{
			Name: "k", Grid: 64, Block: 256,
			Func: func(t *Thread) {
				v := Ld(t, buf, t.Global())
				t.FLOP(1)
				St(t, buf, t.Global(), v+1)
			},
		})
	}
}

// BenchmarkCPUTaskRoundTrip measures the CPU-task path.
func BenchmarkCPUTaskRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSystem(config.HeteroProcessor())
		buf := AllocBuf[float32](s, 1<<14, "b", Host)
		s.CPUTask(CPUTaskSpec{
			Name: "c", Threads: 4,
			Func: func(c *CPUThread) {
				for j := c.TID(); j < buf.Len(); j += c.Threads() {
					Ld(c, buf, j)
				}
			},
		})
	}
}

// BenchmarkMemcpyRoundTrip measures the DMA path (1MB over PCIe).
func BenchmarkMemcpyRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSystem(config.DiscreteGPU())
		h := AllocBuf[float32](s, 1<<18, "h", Host)
		d := AllocBuf[float32](s, 1<<18, "d", Device)
		Memcpy(s, d, h)
	}
}

// BenchmarkRecordCTA measures recording one 256-lane CTA (a unit-stride
// load, a FLOP and a store per lane) into a warm launch arena.
func BenchmarkRecordCTA(b *testing.B) {
	s := NewSystem(config.HeteroProcessor())
	buf := AllocBuf[float32](s, 1<<14, "b", Host)
	rec := newLaneRecorder(256, func(t *Thread) {
		v := Ld(t, buf, t.Global())
		t.FLOP(1)
		St(t, buf, t.Global(), v+1)
	}, nil)
	rec.gen(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.gen(i % 64)
	}
}

// TestRecordCTAZeroAlloc checks recording a CTA into a warm launch arena
// allocates nothing: the arena and the lane views are reused across CTAs.
func TestRecordCTAZeroAlloc(t *testing.T) {
	s := NewSystem(config.HeteroProcessor())
	buf := AllocBuf[float32](s, 1<<12, "b", Host)
	rec := newLaneRecorder(64, func(t *Thread) {
		t.FLOP(1)
		St(t, buf, t.Global(), Ld(t, buf, t.Global()))
	}, nil)
	rec.gen(0)
	cta := 1
	if n := testing.AllocsPerRun(50, func() { rec.gen(cta % 64); cta++ }); n != 0 {
		t.Fatalf("recording a CTA allocates %.1f times", n)
	}
}
