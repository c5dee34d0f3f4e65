package memory

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// WritePolicy selects how a cache handles stores.
type WritePolicy int

const (
	// WriteBack allocates on store miss and marks lines dirty (CPU L1D/L2,
	// GPU L2).
	WriteBack WritePolicy = iota
	// WriteThroughNoAlloc forwards stores to the next level immediately and
	// never dirties lines (Fermi-style GPU L1 global stores). Loads still
	// allocate. This conveniently keeps all dirty GPU data in the shared L2,
	// so the coherence fabric only needs to probe L2-level caches.
	//
	// Write-through stores are POSTED regardless of hit or miss: the
	// downstream write is issued at the L1 completion time and consumes
	// downstream bandwidth, but the requester observes only the L1 hit
	// latency. (Fermi global stores retire from the SM's perspective once
	// handed to the L1; store buffering hides the L2 round trip.)
	WriteThroughNoAlloc
)

// MaxAssoc is the largest associativity a Cache supports: each set's
// recency list links its ways and its sentinel record with uint8 indices.
const MaxAssoc = 255

// empty is the tag of a way that holds no line. Cached tags are line-aligned,
// so the all-ones address never names a line.
const empty = ^Addr(0)

// way is the per-way state kept beside the tag array: the write-back state
// of the line it holds and its links in the set's recency list.
//
// Each set's ways, plus one sentinel record after them (index assoc), form a
// circular list in exact LRU order: the sentinel's next is the most recently
// used way and its prev the next victim. Empty ways form the tail end of the
// list in descending way order, so the victim is always the lowest empty
// way, else the least recently used one.
type way struct {
	prev, next uint8 // toward the MRU end, toward the LRU end
	dirty      bool
	comp       uint8 // stats.Component that produced the dirty data (writeback attribution)
}

// Cache is a set-associative cache with LRU replacement, write-allocate
// write-back or write-through-no-allocate policy, banked ports, and
// latency-forwarding timing.
type Cache struct {
	Name      string
	lineBytes int
	assoc     int
	policy    WritePolicy
	hitLat    sim.Tick
	serv      sim.Tick // port occupancy per access
	banks     []sim.BusyModel
	bank0     [1]sim.BusyModel // backs banks for a one-port cache, saving an allocation
	next      Port
	srcID     int
	ctr       *stats.Counters
	tags      []Addr // nsets*assoc, set-major; empty marks a free way
	ways      []way  // nsets*(assoc+1): each set's ways, then its sentinel

	// Precomputed shift/mask index math (power-of-two fast path).
	li      lineIndexer
	setMod  modder
	bankMod modder

	// Interned counter handles, resolved once in NewCache so the access
	// hot path increments a slot directly — no per-access name
	// concatenation or map hash.
	cHits, cMisses, cWriteThrough, cWritebacks stats.Counter
	cInvalWB, cRangeWB, cFlushWB               stats.Counter

	// Tr is the optional trace sink (nil-safe). Spill instants are capped
	// per cache: a thrashing cache evicts millions of dirty lines, and the
	// cap keeps traced runs bounded while still showing where spilling
	// starts. One "spill events capped" marker records the cutoff.
	Tr       *trace.Recorder
	trSpills int
}

// maxSpillEvents bounds per-cache dirty-eviction instants in a trace.
const maxSpillEvents = 512

// CacheConfig collects constructor parameters for a Cache.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	Policy    WritePolicy
	HitLat    sim.Tick
	Serv      sim.Tick // per-access port busy time; 0 means unthrottled
	Banks     int      // parallel ports selected by address; min 1
	Next      Port
	SrcID     int
	Counters  *stats.Counters
}

// NewCache builds a cache. Sets are derived from size/assoc/line. A geometry
// that is not a whole number of sets, or an associativity outside
// [1, MaxAssoc], panics: config.System.Validate rejects those up front.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Assoc < 1 || cfg.Assoc > MaxAssoc || cfg.LineBytes < 1 ||
		cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.Assoc*cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache %s: %d B is not a whole number of %d-way sets of %d B lines",
			cfg.Name, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes))
	}
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	if cfg.Counters == nil {
		cfg.Counters = stats.NewCounters()
	}
	c := &Cache{
		Name:      cfg.Name,
		lineBytes: cfg.LineBytes,
		assoc:     cfg.Assoc,
		policy:    cfg.Policy,
		hitLat:    cfg.HitLat,
		serv:      cfg.Serv,
		next:      cfg.Next,
		srcID:     cfg.SrcID,
		ctr:       cfg.Counters,
		tags:      make([]Addr, nsets*cfg.Assoc),
		ways:      make([]way, nsets*(cfg.Assoc+1)),
		li:        newLineIndexer(cfg.LineBytes),
		setMod:    newModder(nsets),
		bankMod:   newModder(cfg.Banks),
	}
	c.banks = c.bank0[:]
	if cfg.Banks > 1 {
		c.banks = make([]sim.BusyModel, cfg.Banks)
	}
	c.reset()
	c.cHits = c.ctr.Handle(cfg.Name + ".hits")
	c.cMisses = c.ctr.Handle(cfg.Name + ".misses")
	c.cWriteThrough = c.ctr.Handle(cfg.Name + ".write_through")
	c.cWritebacks = c.ctr.Handle(cfg.Name + ".writebacks")
	c.cInvalWB = c.ctr.Handle(cfg.Name + ".inval_writebacks")
	c.cRangeWB = c.ctr.Handle(cfg.Name + ".range_writebacks")
	c.cFlushWB = c.ctr.Handle(cfg.Name + ".flush_writebacks")
	return c
}

// reset empties every way and lists each set's ways in descending order,
// so way 0 is the first victim.
func (c *Cache) reset() {
	for i := range c.tags {
		c.tags[i] = empty
	}
	n := c.assoc + 1
	for base := 0; base < len(c.ways); base += n {
		ways := c.ways[base : base+n]
		for w := range ways {
			ways[w] = way{prev: uint8((w + 1) % n), next: uint8((w + n - 1) % n)}
		}
	}
}

// Counters exposes the cache's counter group (hits/misses/writebacks,
// prefixed with the cache name).
func (c *Cache) Counters() *stats.Counters { return c.ctr }

// setTags returns one set's tags.
func (c *Cache) setTags(set int) []Addr { return c.tags[set*c.assoc : (set+1)*c.assoc] }

// setWays returns one set's way records, sentinel last.
func (c *Cache) setWays(set int) []way {
	n := c.assoc + 1
	return c.ways[set*n : (set+1)*n]
}

// find returns the set holding addr and the way holding it, or -1.
func (c *Cache) find(addr Addr) (set, w int) {
	set = c.setMod.mod(c.li.index(addr))
	for i, tag := range c.setTags(set) {
		if tag == addr {
			return set, i
		}
	}
	return set, -1
}

// touch makes way w the most recently used of its set.
func touch(ways []way, w uint8) {
	s := uint8(len(ways) - 1)
	x := &ways[w]
	if x.prev == s {
		return
	}
	ways[x.prev].next = x.next
	ways[x.next].prev = x.prev
	x.prev, x.next = s, ways[s].next
	ways[x.next].prev = w
	ways[s].next = w
}

// drop empties way w of set and moves it into the set's run of empty ways
// at the LRU end, in way order, so the lowest empty way stays the next victim.
func (c *Cache) drop(set int, w uint8) {
	tags, ways := c.setTags(set), c.setWays(set)
	s := uint8(len(ways) - 1)
	tags[w] = empty
	x := &ways[w]
	x.dirty = false
	ways[x.prev].next = x.next
	ways[x.next].prev = x.prev
	// Walk from the LRU end over the empty ways numbered below w; w goes in
	// just LRU-ward of the record the walk stops at.
	at := ways[s].prev
	for at != s && tags[at] == empty && at < w {
		at = ways[at].prev
	}
	x.prev, x.next = at, ways[at].next
	ways[x.next].prev = w
	ways[at].next = w
}

// Access services one line-granularity request and returns its completion
// time. Store misses under write-back fetch the line as a read from the next
// level (the off-chip write happens later, at eviction — exactly the
// semantics the paper's off-chip classifier depends on).
func (c *Cache) Access(now sim.Tick, req Request) sim.Tick {
	addr := LineAddr(req.Addr, c.lineBytes)
	idx := c.li.index(addr)
	start := c.banks[c.bankMod.mod(idx)].Claim(now, c.serv)
	t := start + c.hitLat

	set := c.setMod.mod(idx)
	tags, ways := c.setTags(set), c.setWays(set)
	for i, tag := range tags {
		if tag == addr {
			touch(ways, uint8(i))
			if req.Write {
				if c.policy == WriteThroughNoAlloc {
					c.cWriteThrough.Inc()
					c.next.Access(t, Request{Addr: addr, Write: true, Comp: req.Comp, SrcID: c.srcID})
					return t
				}
				ways[i].dirty = true
				ways[i].comp = uint8(req.Comp)
			}
			c.cHits.Inc()
			return t
		}
	}

	// Miss. A write-through store is posted just like the hit case: the
	// downstream write consumes bandwidth but the requester sees only the
	// L1 latency (see WriteThroughNoAlloc).
	if req.Write && c.policy == WriteThroughNoAlloc {
		c.cWriteThrough.Inc()
		c.next.Access(t, Request{Addr: addr, Write: true, Comp: req.Comp, SrcID: c.srcID})
		return t
	}
	c.cMisses.Inc()

	v := ways[c.assoc].prev
	victim := &ways[v]
	if victim.dirty {
		comp := stats.Component(victim.comp)
		c.cWritebacks.Inc()
		c.spillEvent(t, tags[v], comp)
		// Posted write: consumes downstream bandwidth but is off the
		// requester's critical path.
		c.next.Access(t, Request{Addr: tags[v], Write: true, Writeback: true, Comp: comp, SrcID: c.srcID})
	}
	// A full-line eviction from the level above installs directly; any
	// other miss fetches the line (always a read; write-allocate dirties it
	// on install).
	done := t
	if !(req.Write && req.Writeback) {
		done = c.next.Access(t, Request{Addr: addr, Comp: req.Comp, SrcID: c.srcID})
	}
	tags[v] = addr
	victim.dirty, victim.comp = req.Write, uint8(req.Comp)
	touch(ways, v)
	return done
}

// spillEvent records one capacity spill (dirty eviction) in the trace,
// up to the per-cache cap.
func (c *Cache) spillEvent(now sim.Tick, tag Addr, comp stats.Component) {
	if !c.Tr.Enabled() || c.trSpills > maxSpillEvents {
		return
	}
	c.trSpills++
	if c.trSpills > maxSpillEvents {
		c.Tr.Instant(comp, c.Name, "spill", "spill events capped", now,
			trace.Arg{Key: "cap", Val: maxSpillEvents})
		return
	}
	c.Tr.Instant(comp, c.Name, "spill", "dirty eviction", now,
		trace.Arg{Key: "line", Val: uint64(tag)})
}

// Peek reports whether the line is present, without touching LRU or timing.
func (c *Cache) Peek(addr Addr) (found, dirty bool) {
	set, w := c.find(LineAddr(addr, c.lineBytes))
	if w < 0 {
		return false, false
	}
	return true, c.setWays(set)[w].dirty
}

// Probe implements a coherence probe: if the line is present it is
// invalidated (forWrite) or downgraded to clean (read probe). It reports
// presence, whether the copy was dirty, and the component that dirtied it.
// The caller (fabric) is responsible for issuing any DRAM writeback implied
// by a read-probe downgrade of a dirty line.
func (c *Cache) Probe(addr Addr, forWrite bool) (found, dirty bool, comp stats.Component) {
	set, w := c.find(LineAddr(addr, c.lineBytes))
	if w < 0 {
		return false, false, 0
	}
	x := &c.setWays(set)[w]
	dirty, comp = x.dirty, stats.Component(x.comp)
	if forWrite {
		c.drop(set, uint8(w))
	} else {
		x.dirty = false
	}
	return true, dirty, comp
}

// InvalidateRange drops every line overlapping [base, base+size). Dirty
// lines are written back through the next level first, as the paper
// specifies for memcpy destinations ("written back or invalidated"). The
// writebacks are posted at time now.
func (c *Cache) InvalidateRange(now sim.Tick, base Addr, size int, comp stats.Component) {
	lo := LineAddr(base, c.lineBytes)
	hi := base + Addr(size)
	dropped, wb := 0, 0
	for set := range c.setMod.n {
		tags, ways := c.setTags(set), c.setWays(set)
		for w, tag := range tags {
			if tag == empty || tag < lo || tag >= hi {
				continue
			}
			if x := &ways[w]; x.dirty {
				wb++
				c.cInvalWB.Inc()
				c.next.Access(now, Request{Addr: tag, Write: true, Writeback: true, Comp: stats.Component(x.comp), SrcID: c.srcID})
			}
			c.drop(set, uint8(w))
			dropped++
		}
	}
	if dropped > 0 {
		c.Tr.Instant(comp, c.Name, "coherence", "invalidate range", now,
			trace.Arg{Key: "lines", Val: dropped}, trace.Arg{Key: "writebacks", Val: wb})
	}
}

// WritebackRange writes back (but keeps, now clean) every dirty line in
// [base, base+size). A DMA engine calls this on its source range so it reads
// fresh data without evicting the producer's working set.
func (c *Cache) WritebackRange(now sim.Tick, base Addr, size int) {
	lo := LineAddr(base, c.lineBytes)
	hi := base + Addr(size)
	wb := 0
	for set := range c.setMod.n {
		tags, ways := c.setTags(set), c.setWays(set)
		for w, tag := range tags {
			// Only ways in use are dirty.
			if x := &ways[w]; x.dirty && tag >= lo && tag < hi {
				wb++
				c.cRangeWB.Inc()
				c.next.Access(now, Request{Addr: tag, Write: true, Writeback: true, Comp: stats.Component(x.comp), SrcID: c.srcID})
				x.dirty = false
			}
		}
	}
	if wb > 0 {
		c.Tr.Instant(stats.Copy, c.Name, "coherence", "writeback range", now,
			trace.Arg{Key: "writebacks", Val: wb})
	}
}

// FlushAll writes back every dirty line and invalidates the whole cache.
// GPU L1s are flushed at kernel boundaries (they are not coherent).
func (c *Cache) FlushAll(now sim.Tick) {
	wb := 0
	for set := range c.setMod.n {
		tags, ways := c.setTags(set), c.setWays(set)
		for w, tag := range tags {
			if x := &ways[w]; x.dirty {
				wb++
				c.cFlushWB.Inc()
				c.next.Access(now, Request{Addr: tag, Write: true, Writeback: true, Comp: stats.Component(x.comp), SrcID: c.srcID})
			}
		}
	}
	c.reset()
	if wb > 0 {
		c.Tr.Instant(stats.GPU, c.Name, "coherence", "flush", now,
			trace.Arg{Key: "writebacks", Val: wb})
	}
}
