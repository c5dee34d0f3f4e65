package core

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/stats"
)

// gpuBase is the discrete system's GPU-space base address: the analysis
// tables must stay dense there, not only near address 0.
const gpuBase = memory.Addr(4 << 30)

// BenchmarkCollectorTouch measures the footprint recorder on a stream of
// 4-byte element accesses through a 1 MiB buffer, the shape a CPU task's
// trace touches it with.
func BenchmarkCollectorTouch(b *testing.B) {
	c := NewCollector(128, 179e9)
	const span = 1 << 20
	for a := memory.Addr(0); a < span; a += 128 {
		c.Touch(stats.GPU, gpuBase+a, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(stats.GPU, gpuBase+memory.Addr(i*4%span), 4)
	}
}

// BenchmarkClassifierObserve measures one off-chip access classification
// over a 1 MiB working set, with a stage boundary every 4096 accesses.
func BenchmarkClassifierObserve(b *testing.B) {
	cl := NewClassifier()
	const lines = (1 << 20) / 128
	base := uint64(gpuBase) / 128
	for l := uint64(0); l < lines; l++ {
		cl.Observe(base+l, false, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Observe(base+uint64(i*7%lines), i%5 == 0, 2+i/4096)
	}
}

// TestTouchZeroAlloc pins footprint recording at 0 allocs/op once the
// line's table page exists.
func TestTouchZeroAlloc(t *testing.T) {
	c := NewCollector(128, 179e9)
	c.Touch(stats.GPU, gpuBase, 4)
	var i memory.Addr
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 4) % (memory.TablePage * 128)
		c.Touch(stats.CPU, gpuBase+i, 8)
	}); a != 0 {
		t.Fatalf("Touch allocates %.1f/op, want 0", a)
	}
}

// TestObserveZeroAlloc pins classification at 0 allocs/op once the line's
// table page exists.
func TestObserveZeroAlloc(t *testing.T) {
	cl := NewClassifier()
	base := uint64(gpuBase) / 128
	cl.Observe(base, false, 1)
	var i uint64
	if a := testing.AllocsPerRun(1000, func() {
		i++
		cl.Observe(base+i%memory.TablePage, i%3 == 0, int(1+i/100))
	}); a != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", a)
	}
}
