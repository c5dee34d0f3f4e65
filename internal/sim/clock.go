package sim

// Clock converts cycle counts of a fixed-frequency clock domain into Ticks.
// The period is rounded to the nearest picosecond, so a 3.5GHz clock has a
// 286ps period (3.497GHz effective) — close enough for the cycle-approximate
// models in this repository.
type Clock struct {
	period Tick
}

// NewClock builds a clock for the given frequency in Hz. Frequencies above
// 1THz collapse to a 1ps period.
func NewClock(hz float64) Clock {
	p := Tick(float64(Second)/hz + 0.5)
	if p < 1 {
		p = 1
	}
	return Clock{period: p}
}

// Period reports one cycle as a Tick span.
func (c Clock) Period() Tick { return c.period }

// Cycles converts a cycle count to a Tick span.
func (c Clock) Cycles(n int64) Tick { return Tick(n) * c.period }

// CyclesF converts a fractional cycle count, rounding up so work never takes
// zero time.
func (c Clock) CyclesF(n float64) Tick {
	t := Tick(n*float64(c.period) + 0.999999)
	if t < 0 {
		t = 0
	}
	return t
}

// ToCycles converts a Tick span to whole elapsed cycles (rounded down).
func (c Clock) ToCycles(t Tick) int64 { return int64(t / c.period) }

// BusyModel enforces a service throughput: a shared resource (cache port,
// DRAM channel, link) can begin a new service only when the previous one
// finished. Claim returns the time service starts; the resource is then busy
// for dur.
type BusyModel struct {
	freeAt Tick
	busy   Tick // accumulated busy time, for utilization accounting
}

// Claim reserves the resource at the earliest of now or when it frees, for
// dur. It returns the service start time.
func (b *BusyModel) Claim(now Tick, dur Tick) Tick {
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + dur
	b.busy += dur
	return start
}

// FreeAt reports when the resource next becomes free.
func (b *BusyModel) FreeAt() Tick { return b.freeAt }

// BusyTime reports accumulated busy time.
func (b *BusyModel) BusyTime() Tick { return b.busy }
