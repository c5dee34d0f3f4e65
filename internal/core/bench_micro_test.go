package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memory"
	"repro/internal/stats"
)

// gpuBase is the discrete system's GPU-space base address: the analysis
// tables must stay dense there, not only near address 0.
const gpuBase = memory.Addr(4 << 30)

// BenchmarkCollectorTouch measures the footprint recorder on its hottest
// shape: a kernel streaming 4-byte element accesses through a 1 MiB buffer.
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

// TestMergedShardMatchesOneFootprint is the differential check behind the
// parallel engine's footprint shard: touches split at random between the
// collector and a shard, then merged, must partition exactly like the same
// touches recorded into the collector alone.
func TestMergedShardMatchesOneFootprint(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		whole := NewCollector(128, 179e9)
		split := NewCollector(128, 179e9)
		shard := NewFootprint(128)
		for n := 0; n < 2000; n++ {
			comp := stats.Component(rng.Intn(int(stats.NumComponents)))
			base := memory.Addr(0)
			if rng.Intn(2) == 1 {
				base = gpuBase
			}
			addr := base + memory.Addr(rng.Intn(3*memory.TablePage*128))
			size := 1 + rng.Intn(600)
			whole.Touch(comp, addr, size)
			if rng.Intn(2) == 0 {
				split.Touch(comp, addr, size)
			} else {
				shard.Touch(comp, addr, size)
			}
		}
		split.MergeFootprint(shard)
		if got, want := split.FootprintBytes(), whole.FootprintBytes(); got != want {
			t.Fatalf("seed %d: merged footprint %d bytes, one footprint %d", seed, got, want)
		}
		if got, want := split.FootprintPartition(), whole.FootprintPartition(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merged partition %v, one footprint %v", seed, got, want)
		}
	}
}
