package memory

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestLineMath(t *testing.T) {
	if LineAddr(0x12345, 128) != 0x12300 {
		t.Fatalf("LineAddr wrong: %#x", LineAddr(0x12345, 128))
	}
	if LinesSpanned(0, 128, 128) != 1 {
		t.Fatal("one line")
	}
	if LinesSpanned(64, 128, 128) != 2 {
		t.Fatal("straddle should span 2")
	}
	if LinesSpanned(0, 0, 128) != 0 {
		t.Fatal("empty span")
	}
	if LinesSpanned(128, 256, 128) != 2 {
		t.Fatal("aligned 256B should span 2")
	}
}

func TestSpaceAlloc(t *testing.T) {
	s := NewSpace("cpu", 0x1000, 1<<20, 128)
	a := s.Alloc(100)
	b := s.Alloc(100)
	if a != 0x1000 {
		t.Fatalf("first alloc at %#x", a)
	}
	if b != 0x1080 {
		t.Fatalf("second alloc not line aligned: %#x", b)
	}
	if !s.Contains(a) || s.Contains(0x10) {
		t.Fatal("Contains wrong")
	}
	if s.Used() != uint64(b-0x1000)+100 {
		t.Fatalf("Used = %d", s.Used())
	}
	c := s.AllocAligned(10, 1) // deliberately misaligned
	if c%128 == 0 {
		t.Fatalf("expected misaligned alloc, got %#x", c)
	}
}

func TestSpaceExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	s := NewSpace("tiny", 0, 256, 1)
	s.Alloc(512)
}

// sinkPort records accesses and returns a fixed latency.
type sinkPort struct {
	lat  sim.Tick
	reqs []Request
}

func (p *sinkPort) Access(now sim.Tick, req Request) sim.Tick {
	p.reqs = append(p.reqs, req)
	return now + p.lat
}

func (p *sinkPort) count(write bool) int {
	n := 0
	for _, r := range p.reqs {
		if r.Write == write {
			n++
		}
	}
	return n
}

func newTestCache(size, assoc int, pol WritePolicy, next Port) *Cache {
	return NewCache(CacheConfig{
		Name: "c", SizeBytes: size, Assoc: assoc, LineBytes: 128,
		Policy: pol, HitLat: 10, Serv: 1, Next: next,
	})
}

func TestCacheHitMiss(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(4*1024, 4, WriteBack, sink)

	// Cold miss goes to next level.
	done := c.Access(0, Request{Addr: 0})
	if done < 100 {
		t.Fatalf("miss too fast: %d", done)
	}
	if c.Counters().Get("c.misses") != 1 {
		t.Fatal("miss not counted")
	}
	// Re-access hits.
	done2 := c.Access(done, Request{Addr: 64}) // same line
	if done2-done > 20 {
		t.Fatalf("hit too slow: %d", done2-done)
	}
	if c.Counters().Get("c.hits") != 1 {
		t.Fatal("hit not counted")
	}
	if len(sink.reqs) != 1 {
		t.Fatalf("next level saw %d reqs, want 1", len(sink.reqs))
	}
}

func TestCacheWriteBackEviction(t *testing.T) {
	sink := &sinkPort{lat: 100}
	// 2 sets x 2 ways. Lines mapping to set 0: addr multiples of 2*128.
	c := newTestCache(4*128, 2, WriteBack, sink)

	c.Access(0, Request{Addr: 0, Write: true})    // dirty line 0 (fetch = 1 read)
	c.Access(0, Request{Addr: 256, Write: true})  // dirty line 256, same set
	c.Access(0, Request{Addr: 512, Write: false}) // evicts LRU (line 0) -> writeback
	if got := sink.count(true); got != 1 {
		t.Fatalf("writebacks to next = %d, want 1", got)
	}
	if got := c.Counters().Get("c.writebacks"); got != 1 {
		t.Fatalf("writeback counter = %d", got)
	}
	// The writeback must be a full-line write.
	for _, r := range sink.reqs {
		if r.Write && !r.Writeback {
			t.Fatal("eviction write not marked Writeback")
		}
	}
}

func TestCacheWritebackInstallNoFetch(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(4*1024, 4, WriteBack, sink)
	// A full-line writeback from an upper level installs without fetching.
	c.Access(0, Request{Addr: 0, Write: true, Writeback: true})
	if got := sink.count(false); got != 0 {
		t.Fatalf("writeback install fetched %d lines", got)
	}
	if f, d := c.Peek(0); !f || !d {
		t.Fatal("writeback line should be present and dirty")
	}
}

func TestCacheLRU(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(2*128, 2, WriteBack, sink) // 1 set, 2 ways
	c.Access(0, Request{Addr: 0})
	c.Access(0, Request{Addr: 128})
	c.Access(0, Request{Addr: 0}) // touch 0, so 128 becomes LRU
	c.Access(0, Request{Addr: 256})
	if f, _ := c.Peek(0); !f {
		t.Fatal("recently used line evicted")
	}
	if f, _ := c.Peek(128); f {
		t.Fatal("LRU line not evicted")
	}
}

func TestWriteThroughNoAlloc(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(4*1024, 4, WriteThroughNoAlloc, sink)
	c.Access(0, Request{Addr: 0, Write: true})
	if f, _ := c.Peek(0); f {
		t.Fatal("store must not allocate")
	}
	if got := sink.count(true); got != 1 {
		t.Fatalf("store not forwarded: %d", got)
	}
	// Load allocates; store to the cached line still writes through and
	// leaves the line clean.
	c.Access(0, Request{Addr: 512})
	c.Access(0, Request{Addr: 512, Write: true})
	if f, d := c.Peek(512); !f || d {
		t.Fatalf("write-through line state wrong: found=%v dirty=%v", f, d)
	}
	if got := sink.count(true); got != 2 {
		t.Fatalf("second store not forwarded: %d", got)
	}
}

// Write-through stores are posted: the requester sees the L1 hit latency
// whether the line is present or not; the downstream write proceeds in the
// background. A miss must not charge the requester the next-level latency.
func TestWriteThroughStorePosted(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(4*1024, 4, WriteThroughNoAlloc, sink)
	// Store miss: posted, requester pays only issue time (HitLat applies to
	// the data response, which a posted store doesn't wait for).
	missDone := c.Access(0, Request{Addr: 0, Write: true})
	// Store hit: warm a line with a load first.
	c.Access(100, Request{Addr: 512})
	hitDone := c.Access(1000, Request{Addr: 512, Write: true})
	// Both complete after the L1 pipeline (bank serv + hit latency) but
	// strictly before the downstream latency would land.
	if missDone < 10 || missDone >= 100 {
		t.Fatalf("store miss completes at %d, want L1 latency only", missDone)
	}
	if hitDone < 1010 || hitDone >= 1100 {
		t.Fatalf("store hit completes at %d, want L1 latency only", hitDone)
	}
	if got := sink.count(true); got != 2 {
		t.Fatalf("stores forwarded = %d, want 2", got)
	}
}

func TestProbe(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(4*1024, 4, WriteBack, sink)
	c.Access(0, Request{Addr: 0, Write: true, Comp: stats.GPU})

	found, dirty, comp := c.Probe(0, false)
	if !found || !dirty || comp != stats.GPU {
		t.Fatalf("read probe: found=%v dirty=%v comp=%v", found, dirty, comp)
	}
	// Read probe downgrades to clean but keeps the line.
	if f, d := c.Peek(0); !f || d {
		t.Fatalf("after read probe: found=%v dirty=%v", f, d)
	}
	// Write probe invalidates.
	if f, _, _ := c.Probe(0, true); !f {
		t.Fatal("write probe should find line")
	}
	if f, _ := c.Peek(0); f {
		t.Fatal("write probe should invalidate")
	}
	if f, _, _ := c.Probe(999999, false); f {
		t.Fatal("probe of absent line found something")
	}
}

func TestInvalidateRange(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(16*1024, 4, WriteBack, sink)
	c.Access(0, Request{Addr: 0, Write: true})
	c.Access(0, Request{Addr: 128, Write: false})
	c.Access(0, Request{Addr: 4096, Write: true}) // outside range
	before := sink.count(true)
	c.InvalidateRange(0, 0, 256, stats.Copy)
	if f, _ := c.Peek(0); f {
		t.Fatal("line 0 not invalidated")
	}
	if f, _ := c.Peek(128); f {
		t.Fatal("line 128 not invalidated")
	}
	if f, _ := c.Peek(4096); !f {
		t.Fatal("line outside range invalidated")
	}
	if got := sink.count(true) - before; got != 1 {
		t.Fatalf("dirty-line invalidation writebacks = %d, want 1", got)
	}
}

func TestFlushAll(t *testing.T) {
	sink := &sinkPort{lat: 100}
	c := newTestCache(4*1024, 4, WriteBack, sink)
	c.Access(0, Request{Addr: 0, Write: true})
	c.Access(0, Request{Addr: 128, Write: false})
	before := sink.count(true)
	c.FlushAll(0)
	if got := sink.count(true) - before; got != 1 {
		t.Fatalf("flush writebacks = %d, want 1", got)
	}
	if f, _ := c.Peek(0); f {
		t.Fatal("flush left lines valid")
	}
}

func TestDRAMBandwidthThrottling(t *testing.T) {
	// One channel at 128 GB/s -> 1ns per 128B line.
	d := NewDRAM("m", 1, 128e9, 50*sim.Nanosecond, 128, nil)
	t1 := d.Access(0, Request{Addr: 0})
	t2 := d.Access(0, Request{Addr: 128})
	// Second access must queue behind the first by one service slot.
	if t2-t1 != sim.Tick(sim.Nanosecond) {
		t.Fatalf("service spacing = %d ps, want 1000", t2-t1)
	}
	if d.Counters().Get("m.reads") != 2 {
		t.Fatal("reads not counted")
	}
	if d.BusyTime() != 2*sim.Nanosecond {
		t.Fatalf("busy = %d", d.BusyTime())
	}
}

func TestDRAMChannelInterleave(t *testing.T) {
	d := NewDRAM("m", 4, 179e9, 70*sim.Nanosecond, 128, nil)
	// Lines 0..3 land on different channels, so all should start at 0 and
	// complete at the same time.
	var times [4]sim.Tick
	for i := 0; i < 4; i++ {
		times[i] = d.Access(0, Request{Addr: Addr(i * 128)})
	}
	for i := 1; i < 4; i++ {
		if times[i] != times[0] {
			t.Fatalf("channel %d not parallel: %v", i, times)
		}
	}
	// PeakBytesPerSec round-trips approximately.
	got := d.PeakBytesPerSec()
	if got < 170e9 || got > 190e9 {
		t.Fatalf("peak = %g", got)
	}
}

func TestDRAMOnAccessHook(t *testing.T) {
	d := NewDRAM("m", 1, 100e9, 0, 128, nil)
	var seen []Request
	d.OnAccess = func(now sim.Tick, req Request) { seen = append(seen, req) }
	d.Access(0, Request{Addr: 0, Write: true, Comp: stats.Copy})
	if len(seen) != 1 || !seen[0].Write || seen[0].Comp != stats.Copy {
		t.Fatalf("hook saw %+v", seen)
	}
}

func TestFabricCoherentC2C(t *testing.T) {
	dram := NewDRAM("m", 4, 179e9, 70*sim.Nanosecond, 128, nil)
	f := NewFabric(FabricConfig{Name: "f", Lat: 4 * sim.Nanosecond, Serv: 100, Coherent: true, C2CLat: 40 * sim.Nanosecond, DRAM: dram})
	owner := NewCache(CacheConfig{Name: "l2a", SizeBytes: 4 * 1024, Assoc: 4, LineBytes: 128, Policy: WriteBack, HitLat: 10, Next: f, SrcID: 1})
	f.Attach(ProbeGroup{SrcID: 1, Caches: []*Cache{owner}})

	// Owner dirties a line.
	owner.Access(0, Request{Addr: 0, Write: true, Comp: stats.GPU, SrcID: 1})
	dramReadsBefore := dram.Counters().Get("m.reads")

	// A different hierarchy reads it through the fabric: served c2c.
	f.Access(0, Request{Addr: 0, SrcID: 2, Comp: stats.CPU})
	if f.Counters().Get("f.c2c_transfers") != 1 {
		t.Fatal("expected cache-to-cache transfer")
	}
	if dram.Counters().Get("m.reads") != dramReadsBefore {
		t.Fatal("c2c transfer must not read DRAM")
	}
	// Dirty downgrade wrote the data back.
	if dram.Counters().Get("m.writes") != 1 {
		t.Fatal("dirty downgrade must write back")
	}
	if f, d := owner.Peek(0); !f || d {
		t.Fatal("owner copy should be downgraded to clean")
	}
	// A second read now also hits c2c (clean copy) without another writeback.
	f.Access(0, Request{Addr: 0, SrcID: 2, Comp: stats.CPU})
	if dram.Counters().Get("m.writes") != 1 {
		t.Fatal("clean c2c must not write back")
	}
}

func TestFabricDoesNotProbeRequester(t *testing.T) {
	dram := NewDRAM("m", 4, 179e9, 70*sim.Nanosecond, 128, nil)
	f := NewFabric(FabricConfig{Name: "f", Coherent: true, DRAM: dram})
	c := NewCache(CacheConfig{Name: "l2", SizeBytes: 4 * 1024, Assoc: 4, LineBytes: 128, Policy: WriteBack, HitLat: 10, Next: f, SrcID: 1})
	f.Attach(ProbeGroup{SrcID: 1, Caches: []*Cache{c}})
	c.Access(0, Request{Addr: 0, Write: true, SrcID: 1})
	// Request from the same hierarchy: must go to DRAM, not self-probe.
	f.Access(0, Request{Addr: 0, SrcID: 1})
	if f.Counters().Get("f.c2c_transfers") != 0 {
		t.Fatal("fabric probed requester's own hierarchy")
	}
	if found, _ := c.Peek(0); !found {
		t.Fatal("self-probe invalidated requester's line")
	}
}

func TestFabricNonCoherentGoesToDRAM(t *testing.T) {
	dram := NewDRAM("m", 1, 100e9, 0, 128, nil)
	f := NewFabric(FabricConfig{Name: "f", Coherent: false, DRAM: dram})
	c := NewCache(CacheConfig{Name: "l2", SizeBytes: 4 * 1024, Assoc: 4, LineBytes: 128, Policy: WriteBack, HitLat: 10, Next: f, SrcID: 1})
	f.Attach(ProbeGroup{SrcID: 1, Caches: []*Cache{c}})
	c.Access(0, Request{Addr: 0, Write: true, SrcID: 1})
	f.Access(0, Request{Addr: 0, SrcID: 2})
	if dram.Counters().Get("m.reads") == 0 {
		t.Fatal("non-coherent fabric must read DRAM")
	}
}

func TestFabricInvalidateRange(t *testing.T) {
	dram := NewDRAM("m", 1, 100e9, 0, 128, nil)
	f := NewFabric(FabricConfig{Name: "f", Coherent: true, DRAM: dram})
	c := NewCache(CacheConfig{Name: "l2", SizeBytes: 4 * 1024, Assoc: 4, LineBytes: 128, Policy: WriteBack, HitLat: 10, Next: f, SrcID: 1})
	f.Attach(ProbeGroup{SrcID: 1, Caches: []*Cache{c}})
	c.Access(0, Request{Addr: 0, Write: true, SrcID: 1})
	f.InvalidateRange(0, 0, 4096, stats.Copy)
	if found, _ := c.Peek(0); found {
		t.Fatal("fabric invalidate missed cache")
	}
	if dram.Counters().Get("m.writes") != 1 {
		t.Fatal("invalidate of dirty line must write back")
	}
}

// Property: the cache never holds more distinct lines than its capacity, and
// Peek agrees with the access history for a small address universe.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		sink := &sinkPort{lat: 10}
		const ways, sets = 4, 8
		c := newTestCache(ways*sets*128, ways, WriteBack, sink)
		for _, op := range ops {
			addr := Addr(op%64) * 128
			c.Access(0, Request{Addr: addr, Write: op%3 == 0})
		}
		// Count valid lines via Peek over the universe.
		valid := 0
		for a := 0; a < 64; a++ {
			if found, _ := c.Peek(Addr(a * 128)); found {
				valid++
			}
		}
		return valid <= ways*sets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every dirtied line is eventually accounted — at the end of any
// access sequence, (dirty lines still cached) + (writebacks seen below) ==
// total distinct lines ever dirtied is NOT a strict invariant (re-dirtying),
// so instead check conservation of writes: writes below never exceed stores
// issued (plus evictions can only write back previously dirtied lines).
func TestCacheWritebackConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		sink := &sinkPort{lat: 10}
		c := newTestCache(4*128, 2, WriteBack, sink)
		stores := 0
		for _, op := range ops {
			addr := Addr(op%32) * 128
			w := op%2 == 0
			if w {
				stores++
			}
			c.Access(0, Request{Addr: addr, Write: w})
		}
		c.FlushAll(0)
		return sink.count(true) <= stores
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// logPort is a next level that records every request with its issue time
// and answers after a fixed latency.
type logPort struct {
	lat sim.Tick
	log []loggedReq
}

type loggedReq struct {
	now sim.Tick
	req Request
}

func (p *logPort) Access(now sim.Tick, req Request) sim.Tick {
	p.log = append(p.log, loggedReq{now, req})
	return now + p.lat + sim.Tick(req.Addr>>7)%5
}

// TestCacheMatchesReference drives Cache and refCache with the same seeded
// random operations and fails at the first difference in a returned tick, a
// Peek or Probe result, a counter, or a request sent to the next level. The
// addresses crowd a few sets, so evictions, dirty writebacks and
// invalidations inside one set are common, and the range operations and
// FlushAll issue their writebacks in way order: a cache that fills or
// refills a different physical way than the reference shows up in that
// order.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct {
		name              string
		assoc, sets, bank int
	}{
		{"6way-32sets", 6, 32, 1},
		{"8way-64sets", 8, 64, 1},
		{"16way-512sets-4banks", 16, 512, 4},
		{"4way-12sets", 4, 12, 1},
		{"1way-16sets", 1, 16, 1},
		{"255way-2sets", MaxAssoc, 2, 1},
	}
	for _, g := range geoms {
		for _, pol := range []WritePolicy{WriteBack, WriteThroughNoAlloc} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s/policy=%d/seed=%d", g.name, pol, seed)
				t.Run(name, func(t *testing.T) {
					cfg := CacheConfig{
						Name: "c", SizeBytes: g.assoc * g.sets * 128, Assoc: g.assoc, LineBytes: 128,
						Policy: pol, HitLat: 10, Serv: 3, Banks: g.bank,
					}
					diffAgainstReference(t, cfg, g.sets, seed, 4000)
				})
			}
		}
	}
}

func diffAgainstReference(t *testing.T, cfg CacheConfig, sets int, seed int64, ops int) {
	t.Helper()
	gotNext, wantNext := &logPort{lat: 50}, &logPort{lat: 50}
	cfg.Next = gotNext
	got := NewCache(cfg)
	cfg.Next = wantNext
	want := newRefCache(cfg)

	rng := rand.New(rand.NewSource(seed))
	// Four hot sets (the first, the last and two others), each with twice
	// its associativity plus one candidate lines.
	hot := []int{0, sets - 1, rng.Intn(sets), rng.Intn(sets)}
	addr := func() Addr {
		line := rng.Intn(2*cfg.Assoc+1)*sets + hot[rng.Intn(len(hot))]
		return Addr(line*cfg.LineBytes + rng.Intn(cfg.LineBytes))
	}
	comps := []stats.Component{stats.CPU, stats.GPU, stats.Copy}
	var now sim.Tick
	for i := 0; i < ops; i++ {
		now += sim.Tick(rng.Intn(4))
		var op string
		switch r := rng.Intn(100); {
		case r < 55:
			req := Request{Addr: addr(), Write: rng.Intn(3) == 0, Comp: comps[rng.Intn(len(comps))], SrcID: 2}
			if req.Write && rng.Intn(4) == 0 {
				req.Writeback = true
			}
			op = fmt.Sprintf("Access(%d, %+v)", now, req)
			if g, w := got.Access(now, req), want.Access(now, req); g != w {
				t.Fatalf("op %d %s: done at %d, reference %d", i, op, g, w)
			}
		case r < 70:
			a := addr()
			op = fmt.Sprintf("Peek(%#x)", a)
			gf, gd := got.Peek(a)
			wf, wd := want.Peek(a)
			if gf != wf || gd != wd {
				t.Fatalf("op %d %s = (%v, %v), reference (%v, %v)", i, op, gf, gd, wf, wd)
			}
		case r < 90:
			a, forWrite := addr(), rng.Intn(2) == 0
			op = fmt.Sprintf("Probe(%#x, %v)", a, forWrite)
			gf, gd, gc := got.Probe(a, forWrite)
			wf, wd, wc := want.Probe(a, forWrite)
			if gf != wf || gd != wd || gc != wc {
				t.Fatalf("op %d %s = (%v, %v, %v), reference (%v, %v, %v)", i, op, gf, gd, gc, wf, wd, wc)
			}
		case r < 95:
			lo := Addr(rng.Intn(2*cfg.Assoc*sets*cfg.LineBytes + 1))
			size := rng.Intn(sets * cfg.LineBytes * 4)
			if rng.Intn(2) == 0 {
				op = fmt.Sprintf("InvalidateRange(%d, %#x, %d)", now, lo, size)
				got.InvalidateRange(now, lo, size, stats.Copy)
				want.InvalidateRange(now, lo, size, stats.Copy)
			} else {
				op = fmt.Sprintf("WritebackRange(%d, %#x, %d)", now, lo, size)
				got.WritebackRange(now, lo, size)
				want.WritebackRange(now, lo, size)
			}
		default:
			op = fmt.Sprintf("FlushAll(%d)", now)
			got.FlushAll(now)
			want.FlushAll(now)
		}
		if len(gotNext.log) != len(wantNext.log) {
			t.Fatalf("op %d %s: next level has %d requests, reference %d", i, op, len(gotNext.log), len(wantNext.log))
		}
		for j := range gotNext.log {
			if gotNext.log[j] != wantNext.log[j] {
				t.Fatalf("op %d %s: next-level request %d is %+v, reference %+v", i, op, j, gotNext.log[j], wantNext.log[j])
			}
		}
		gotNext.log, wantNext.log = gotNext.log[:0], wantNext.log[:0]
	}
	if g, w := got.Counters().Snapshot(), want.Counters().Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("counters %v, reference %v", g, w)
	}
}

// refLine is one way of refCache.
type refLine struct {
	tag   Addr
	valid bool
	dirty bool
	lru   uint64
	comp  stats.Component
}

// refCache is the struct-scan cache that the tag array and recency lists of
// Cache replaced, kept as it was minus its trace instants: each way is a
// refLine with a valid flag and an LRU stamp, a hit scans the lines, and a
// miss scans them again for the first invalid way, else the smallest stamp.
// TestCacheMatchesReference drives both with the same operations.
type refCache struct {
	lineBytes int
	assoc     int
	policy    WritePolicy
	hitLat    sim.Tick
	serv      sim.Tick
	banks     []sim.BusyModel
	next      Port
	srcID     int
	ctr       *stats.Counters
	lines     []refLine
	lruClock  uint64
	li        lineIndexer
	setMod    modder
	bankMod   modder

	cHits, cMisses, cWriteThrough, cWritebacks stats.Counter
	cInvalWB, cRangeWB, cFlushWB               stats.Counter
}

func newRefCache(cfg CacheConfig) *refCache {
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	c := &refCache{
		lineBytes: cfg.LineBytes,
		assoc:     cfg.Assoc,
		policy:    cfg.Policy,
		hitLat:    cfg.HitLat,
		serv:      cfg.Serv,
		banks:     make([]sim.BusyModel, cfg.Banks),
		next:      cfg.Next,
		srcID:     cfg.SrcID,
		ctr:       stats.NewCounters(),
		lines:     make([]refLine, nsets*cfg.Assoc),
		li:        newLineIndexer(cfg.LineBytes),
		setMod:    newModder(nsets),
		bankMod:   newModder(cfg.Banks),
	}
	c.cHits = c.ctr.Handle(cfg.Name + ".hits")
	c.cMisses = c.ctr.Handle(cfg.Name + ".misses")
	c.cWriteThrough = c.ctr.Handle(cfg.Name + ".write_through")
	c.cWritebacks = c.ctr.Handle(cfg.Name + ".writebacks")
	c.cInvalWB = c.ctr.Handle(cfg.Name + ".inval_writebacks")
	c.cRangeWB = c.ctr.Handle(cfg.Name + ".range_writebacks")
	c.cFlushWB = c.ctr.Handle(cfg.Name + ".flush_writebacks")
	return c
}

func (c *refCache) Counters() *stats.Counters { return c.ctr }

func (c *refCache) set(addr Addr) []refLine {
	idx := c.setMod.mod(c.li.index(addr))
	return c.lines[idx*c.assoc : (idx+1)*c.assoc]
}

func (c *refCache) bank(addr Addr) *sim.BusyModel {
	return &c.banks[c.bankMod.mod(c.li.index(addr))]
}

func (c *refCache) Access(now sim.Tick, req Request) sim.Tick {
	addr := LineAddr(req.Addr, c.lineBytes)
	start := c.bank(addr).Claim(now, c.serv)
	t := start + c.hitLat

	set := c.set(addr)
	c.lruClock++
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == addr {
			ln.lru = c.lruClock
			if req.Write {
				if c.policy == WriteThroughNoAlloc {
					c.cWriteThrough.Inc()
					c.next.Access(t, Request{Addr: addr, Write: true, Comp: req.Comp, SrcID: c.srcID})
					return t
				}
				ln.dirty = true
				ln.comp = req.Comp
			}
			c.cHits.Inc()
			return t
		}
	}

	if req.Write && c.policy == WriteThroughNoAlloc {
		c.cWriteThrough.Inc()
		c.next.Access(t, Request{Addr: addr, Write: true, Comp: req.Comp, SrcID: c.srcID})
		return t
	}
	c.cMisses.Inc()

	victim := c.victim(set)
	if victim.valid && victim.dirty {
		c.cWritebacks.Inc()
		c.next.Access(t, Request{Addr: victim.tag, Write: true, Writeback: true, Comp: victim.comp, SrcID: c.srcID})
	}

	if req.Write && req.Writeback {
		*victim = refLine{tag: addr, valid: true, dirty: true, lru: c.lruClock, comp: req.Comp}
		return t
	}

	done := c.next.Access(t, Request{Addr: addr, Comp: req.Comp, SrcID: c.srcID})
	*victim = refLine{tag: addr, valid: true, dirty: req.Write, lru: c.lruClock, comp: req.Comp}
	return done
}

// victim picks the replacement way: first invalid, else least recently used.
func (c *refCache) victim(set []refLine) *refLine {
	vi := 0
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	return &set[vi]
}

func (c *refCache) Peek(addr Addr) (found, dirty bool) {
	addr = LineAddr(addr, c.lineBytes)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return true, set[i].dirty
		}
	}
	return false, false
}

func (c *refCache) Probe(addr Addr, forWrite bool) (found, dirty bool, comp stats.Component) {
	addr = LineAddr(addr, c.lineBytes)
	set := c.set(addr)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == addr {
			found, dirty, comp = true, ln.dirty, ln.comp
			if forWrite {
				ln.valid = false
			} else {
				ln.dirty = false
			}
			return found, dirty, comp
		}
	}
	return false, false, 0
}

func (c *refCache) InvalidateRange(now sim.Tick, base Addr, size int, comp stats.Component) {
	lo := LineAddr(base, c.lineBytes)
	hi := base + Addr(size)
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.tag >= lo && ln.tag < hi {
			if ln.dirty {
				c.cInvalWB.Inc()
				c.next.Access(now, Request{Addr: ln.tag, Write: true, Writeback: true, Comp: ln.comp, SrcID: c.srcID})
			}
			ln.valid = false
		}
	}
}

func (c *refCache) WritebackRange(now sim.Tick, base Addr, size int) {
	lo := LineAddr(base, c.lineBytes)
	hi := base + Addr(size)
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty && ln.tag >= lo && ln.tag < hi {
			c.cRangeWB.Inc()
			c.next.Access(now, Request{Addr: ln.tag, Write: true, Writeback: true, Comp: ln.comp, SrcID: c.srcID})
			ln.dirty = false
		}
	}
}

func (c *refCache) FlushAll(now sim.Tick) {
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty {
			c.cFlushWB.Inc()
			c.next.Access(now, Request{Addr: ln.tag, Write: true, Writeback: true, Comp: ln.comp, SrcID: c.srcID})
		}
		ln.valid = false
	}
}
