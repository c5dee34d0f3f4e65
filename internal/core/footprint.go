package core

import (
	"math/bits"

	"repro/internal/memory"
	"repro/internal/stats"
)

// Footprint is the Figure 4 footprint accumulator: for every line any
// component touched, the set of components that touched it, in a dense
// table indexed by line number. The collector owns the run's one
// footprint, and every touch happens on the timing thread. Membership is a
// pure set union — which lines a component touched, not when or how often
// — so a recorder may touch a line once per use or once per distinct line
// (the GPU touches each compiled CTA's coalesced lines at dispatch) and
// the footprint comes out the same.
type Footprint struct {
	shift uint // log2 of the line size
	lines memory.Table[stats.ComponentSet]
}

// NewFootprint builds an empty footprint at the given line granularity.
func NewFootprint(lineBytes int) *Footprint {
	return &Footprint{shift: uint(bits.TrailingZeros(uint(lineBytes)))}
}

// Touch records that comp accessed [addr, addr+size), at line granularity.
func (f *Footprint) Touch(comp stats.Component, addr memory.Addr, size int) {
	if size <= 0 {
		return
	}
	bit := stats.ComponentSet(0).Set(comp)
	last := uint64(addr+memory.Addr(size)-1) >> f.shift
	for i := uint64(addr) >> f.shift; i <= last; i++ {
		*f.lines.At(i) |= bit
	}
}

// Footprint returns the collector's footprint, for recorders that touch it
// directly.
func (c *Collector) Footprint() *Footprint { return c.foot }

// Touch records that comp accessed [addr, addr+size), at line granularity,
// for the Figure 4 footprint partition.
func (c *Collector) Touch(comp stats.Component, addr memory.Addr, size int) {
	c.foot.Touch(comp, addr, size)
}

// FootprintBytes reports the total touched footprint.
func (c *Collector) FootprintBytes() uint64 {
	var n uint64
	c.foot.lines.Each(func(_ uint64, set *stats.ComponentSet) {
		if *set != 0 {
			n++
		}
	})
	return n << c.foot.shift
}

// FootprintPartition reports touched bytes per exclusive component subset.
func (c *Collector) FootprintPartition() map[stats.ComponentSet]uint64 {
	out := map[stats.ComponentSet]uint64{}
	c.foot.lines.Each(func(_ uint64, set *stats.ComponentSet) {
		if *set != 0 {
			out[*set] += uint64(1) << c.foot.shift
		}
	})
	return out
}
