package memory

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkCacheHit measures the hot path of the memory system.
func BenchmarkCacheHit(b *testing.B) {
	sink := &sinkPort{lat: 100}
	c := NewCache(CacheConfig{
		Name: "c", SizeBytes: 64 * 1024, Assoc: 8, LineBytes: 128,
		Policy: WriteBack, HitLat: 10, Serv: 1, Next: sink,
	})
	c.Access(0, Request{Addr: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(sim.Tick(i), Request{Addr: 0})
	}
}

// BenchmarkCacheHitSpread cycles hits through all 16 ways of one set of the
// GPU L2 geometry (1 MB, 16-way, 4 banks). Every access hits the set's least
// recently used way, so each one moves a way from the tail of the recency
// list to its head; BenchmarkCacheHit always hits the MRU way.
func BenchmarkCacheHitSpread(b *testing.B) {
	const size, assoc, line = 1 << 20, 16, 128
	c := NewCache(CacheConfig{
		Name: "c", SizeBytes: size, Assoc: assoc, LineBytes: line,
		Policy: WriteBack, HitLat: 10, Serv: 1, Banks: 4, Next: &countPort{lat: 100},
	})
	var addrs [assoc]Addr
	for w := range addrs {
		addrs[w] = Addr(w * size / assoc) // one line per way of set 0
		c.Access(0, Request{Addr: addrs[w]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(sim.Tick(i), Request{Addr: addrs[i%assoc]})
	}
}

// TestCacheHitZeroAlloc asserts the cache-hit path is allocation-free: with
// interned counter handles there is no per-access name concatenation or
// map insertion left.
func TestCacheHitZeroAlloc(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := NewCache(CacheConfig{
		Name: "c", SizeBytes: 64 * 1024, Assoc: 8, LineBytes: 128,
		Policy: WriteBack, HitLat: 10, Serv: 1, Next: sink,
	})
	c.Access(0, Request{Addr: 0})
	var now sim.Tick
	if a := testing.AllocsPerRun(1000, func() {
		now++
		c.Access(now, Request{Addr: 0})
	}); a != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", a)
	}
}

// countPort is a next level that only counts requests, so it allocates
// nothing.
type countPort struct {
	lat sim.Tick
	n   int
}

func (p *countPort) Access(now sim.Tick, req Request) sim.Tick {
	p.n++
	return now + p.lat
}

// TestCacheMissZeroAlloc asserts the miss path is allocation-free,
// including victim choice and a dirty eviction's posted writeback: every
// store maps to set 0 of a full set and evicts a dirty line.
func TestCacheMissZeroAlloc(t *testing.T) {
	const size, assoc, line = 64 * 1024, 8, 128
	next := &countPort{lat: 100}
	c := NewCache(CacheConfig{
		Name: "c", SizeBytes: size, Assoc: assoc, LineBytes: line,
		Policy: WriteBack, HitLat: 10, Serv: 1, Next: next,
	})
	var now sim.Tick
	if a := testing.AllocsPerRun(1000, func() {
		now++
		c.Access(now, Request{Addr: Addr(now) * size / assoc, Write: true})
	}); a != 0 {
		t.Fatalf("cache miss allocates %.1f/op, want 0", a)
	}
	if wb := c.Counters().Get("c.writebacks"); wb < 1000-assoc {
		t.Fatalf("%d dirty evictions, want every miss past the first %d to evict one", wb, assoc)
	}
}

// TestDRAMAccessZeroAlloc asserts the DRAM channel model's access path is
// allocation-free, including the per-component access counter.
func TestDRAMAccessZeroAlloc(t *testing.T) {
	d := NewDRAM("m", 4, 179e9, 70*sim.Nanosecond, 128, nil)
	var now sim.Tick
	if a := testing.AllocsPerRun(1000, func() {
		now++
		d.Access(now, Request{Addr: Addr(now) * 128})
	}); a != 0 {
		t.Fatalf("DRAM access allocates %.1f/op, want 0", a)
	}
}

// BenchmarkCacheMissStream measures the streaming-miss path including
// victim selection and writeback generation.
func BenchmarkCacheMissStream(b *testing.B) {
	sink := &sinkPort{lat: 100}
	c := NewCache(CacheConfig{
		Name: "c", SizeBytes: 64 * 1024, Assoc: 8, LineBytes: 128,
		Policy: WriteBack, HitLat: 10, Serv: 1, Next: sink,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(sim.Tick(i), Request{Addr: Addr(i * 128), Write: i%2 == 0})
		if len(sink.reqs) > 1<<16 {
			sink.reqs = sink.reqs[:0]
		}
	}
}

// BenchmarkDRAMAccess measures the channel-queueing model.
func BenchmarkDRAMAccess(b *testing.B) {
	d := NewDRAM("m", 4, 179e9, 70*sim.Nanosecond, 128, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(sim.Tick(i), Request{Addr: Addr(i * 128)})
	}
}
