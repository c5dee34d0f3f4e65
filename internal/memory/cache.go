package memory

import (
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

type cacheLine struct {
	tag   Addr // line base address
	valid bool
	dirty bool
	lru   uint64
	comp  stats.Component // who produced the dirty data (writeback attribution)
}

// Cache is a set-associative cache with LRU replacement, write-allocate
// write-back or write-through-no-allocate policy, banked ports, and
// latency-forwarding timing.
type Cache struct {
	Name      string
	lineBytes int
	nsets     int
	assoc     int
	policy    WritePolicy
	hitLat    sim.Tick
	serv      sim.Tick // port occupancy per access
	banks     []sim.BusyModel
	next      Port
	srcID     int
	ctr       *stats.Counters
	lines     []cacheLine // nsets*assoc
	lruClock  uint64

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

// NewCache builds a cache. Sets are derived from size/assoc/line; a size not
// divisible into at least one set panics, as that is a configuration bug.
func NewCache(cfg CacheConfig) *Cache {
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if nsets <= 0 {
		panic("cache " + cfg.Name + ": size too small for assoc*line")
	}
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	if cfg.Counters == nil {
		cfg.Counters = stats.NewCounters()
	}
	c := &Cache{
		Name:      cfg.Name,
		lineBytes: cfg.LineBytes,
		nsets:     nsets,
		assoc:     cfg.Assoc,
		policy:    cfg.Policy,
		hitLat:    cfg.HitLat,
		serv:      cfg.Serv,
		banks:     make([]sim.BusyModel, cfg.Banks),
		next:      cfg.Next,
		srcID:     cfg.SrcID,
		ctr:       cfg.Counters,
		lines:     make([]cacheLine, nsets*cfg.Assoc),
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

// Counters exposes the cache's counter group (hits/misses/writebacks,
// prefixed with the cache name).
func (c *Cache) Counters() *stats.Counters { return c.ctr }

func (c *Cache) set(addr Addr) []cacheLine {
	idx := c.setMod.mod(c.li.index(addr))
	return c.lines[idx*c.assoc : (idx+1)*c.assoc]
}

func (c *Cache) bank(addr Addr) *sim.BusyModel {
	return &c.banks[c.bankMod.mod(c.li.index(addr))]
}

// Access services one line-granularity request and returns its completion
// time. Store misses under write-back fetch the line as a read from the next
// level (the off-chip write happens later, at eviction — exactly the
// semantics the paper's off-chip classifier depends on).
func (c *Cache) Access(now sim.Tick, req Request) sim.Tick {
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

	// Miss. A write-through store is posted just like the hit case: the
	// downstream write consumes bandwidth but the requester sees only the
	// L1 latency (see WriteThroughNoAlloc).
	if req.Write && c.policy == WriteThroughNoAlloc {
		c.cWriteThrough.Inc()
		c.next.Access(t, Request{Addr: addr, Write: true, Comp: req.Comp, SrcID: c.srcID})
		return t
	}
	c.cMisses.Inc()

	victim := c.victim(set)
	if victim.valid && victim.dirty {
		c.cWritebacks.Inc()
		c.spillEvent(t, victim)
		// Posted write: consumes downstream bandwidth but is off the
		// requester's critical path.
		c.next.Access(t, Request{Addr: victim.tag, Write: true, Writeback: true, Comp: victim.comp, SrcID: c.srcID})
	}

	if req.Write && req.Writeback {
		// A full-line eviction from the level above installs directly —
		// no fetch needed.
		*victim = cacheLine{tag: addr, valid: true, dirty: true, lru: c.lruClock, comp: req.Comp}
		return t
	}

	// Fetch the line (always a read; write-allocate dirties it on install).
	done := c.next.Access(t, Request{Addr: addr, Comp: req.Comp, SrcID: c.srcID})
	*victim = cacheLine{tag: addr, valid: true, dirty: req.Write, lru: c.lruClock, comp: req.Comp}
	return done
}

// spillEvent records one capacity spill (dirty eviction) in the trace,
// up to the per-cache cap.
func (c *Cache) spillEvent(now sim.Tick, victim *cacheLine) {
	if !c.Tr.Enabled() || c.trSpills > maxSpillEvents {
		return
	}
	c.trSpills++
	if c.trSpills > maxSpillEvents {
		c.Tr.Instant(victim.comp, c.Name, "spill", "spill events capped", now,
			trace.Arg{Key: "cap", Val: maxSpillEvents})
		return
	}
	c.Tr.Instant(victim.comp, c.Name, "spill", "dirty eviction", now,
		trace.Arg{Key: "line", Val: uint64(victim.tag)})
}

// victim picks the replacement way: first invalid, else least recently used.
func (c *Cache) victim(set []cacheLine) *cacheLine {
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

// Peek reports whether the line is present, without touching LRU or timing.
func (c *Cache) Peek(addr Addr) (found, dirty bool) {
	addr = LineAddr(addr, c.lineBytes)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return true, set[i].dirty
		}
	}
	return false, false
}

// Probe implements a coherence probe: if the line is present it is
// invalidated (forWrite) or downgraded to clean (read probe). It reports
// presence, whether the copy was dirty, and the component that dirtied it.
// The caller (fabric) is responsible for issuing any DRAM writeback implied
// by a read-probe downgrade of a dirty line.
func (c *Cache) Probe(addr Addr, forWrite bool) (found, dirty bool, comp stats.Component) {
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

// InvalidateRange drops every line overlapping [base, base+size). Dirty
// lines are written back through the next level first, as the paper
// specifies for memcpy destinations ("written back or invalidated"). The
// writebacks are posted at time now.
func (c *Cache) InvalidateRange(now sim.Tick, base Addr, size int, comp stats.Component) {
	lo := LineAddr(base, c.lineBytes)
	hi := base + Addr(size)
	dropped, wb := 0, 0
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.tag >= lo && ln.tag < hi {
			if ln.dirty {
				wb++
				c.cInvalWB.Inc()
				c.next.Access(now, Request{Addr: ln.tag, Write: true, Writeback: true, Comp: ln.comp, SrcID: c.srcID})
			}
			ln.valid = false
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
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty && ln.tag >= lo && ln.tag < hi {
			wb++
			c.cRangeWB.Inc()
			c.next.Access(now, Request{Addr: ln.tag, Write: true, Writeback: true, Comp: ln.comp, SrcID: c.srcID})
			ln.dirty = false
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
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty {
			wb++
			c.cFlushWB.Inc()
			c.next.Access(now, Request{Addr: ln.tag, Write: true, Writeback: true, Comp: ln.comp, SrcID: c.srcID})
		}
		ln.valid = false
	}
	if wb > 0 {
		c.Tr.Instant(stats.GPU, c.Name, "coherence", "flush", now,
			trace.Arg{Key: "writebacks", Val: wb})
	}
}
