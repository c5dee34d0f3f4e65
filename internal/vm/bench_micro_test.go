package vm

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

// BenchmarkTranslateMapped measures the common translation path: a GPU
// access to an already-resident page of the discrete system's GPU space.
func BenchmarkTranslateMapped(b *testing.B) {
	m := heteroMgr()
	const base, span = memory.Addr(4 << 30), 16 << 20
	m.MapRange(base, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Translate(sim.Tick(i), base+memory.Addr(i*128%span), true)
	}
}

// TestTranslateMappedZeroAlloc pins resident-page translation at 0
// allocs/op.
func TestTranslateMappedZeroAlloc(t *testing.T) {
	m := heteroMgr()
	const base, span = memory.Addr(4 << 30), 1 << 20
	m.MapRange(base, span)
	var i memory.Addr
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 128) % span
		m.Translate(sim.Tick(i), base+i, true)
	}); a != 0 {
		t.Fatalf("mapped Translate allocates %.1f/op, want 0", a)
	}
}
