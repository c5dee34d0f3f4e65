package core

import (
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// StageKind discriminates pipeline stages.
type StageKind int

const (
	StageKernel StageKind = iota
	StageCopy
	StageCPU
)

// String names the stage kind.
func (k StageKind) String() string {
	switch k {
	case StageKernel:
		return "kernel"
	case StageCopy:
		return "copy"
	default:
		return "cpu"
	}
}

// Stage records one pipeline stage: a GPU kernel, a memory copy, or a CPU
// compute phase.
type Stage struct {
	ID   int
	Kind StageKind
	Name string
	Comp stats.Component
	// LaunchStart/LaunchDur is the host-side launch overhead interval; its
	// un-overlapped portion is the Cserial term of Eq. 1.
	LaunchStart sim.Tick
	LaunchDur   sim.Tick
	Start, End  sim.Tick
	Bytes       uint64 // copy payload, for copy stages
	FLOPs       uint64
}

// Collector gathers everything one benchmark run produces for the analysis:
// the component activity timeline, stage records, the touched-line footprint
// partition, off-chip access counts, the Section V-C classifier, and the
// inputs to the analytical models.
type Collector struct {
	SC        memory.StageClock
	TL        *stats.Timeline
	Ctr       *stats.Counters
	LineBytes int

	// Tr is the run's trace sink (nil when untraced; every call is
	// nil-safe). All busy-timeline additions are routed through addBusy so
	// the trace's activity spans and TL are the same emissions — the
	// invariant that makes trace-derived busy totals equal the figure
	// timelines to the cycle.
	Tr *trace.Recorder
	// HW is the system's hardware counter group, snapshotted at every
	// stage boundary into Phases.
	HW *stats.Counters

	Stages []*Stage
	// Phases holds the counter deltas observed at each stage boundary, in
	// boundary order.
	Phases []PhaseSnapshot
	hwPrev map[string]uint64

	foot       *Footprint
	cls        *Classifier
	dramByComp [stats.NumComponents]uint64
	flops      [stats.NumComponents]uint64

	// stageBytes is off-chip bytes per stage ID (index 0: before the first
	// stage), for BW-limit marking.
	stageBytes []uint64
	peakBW     float64 // compute-memory peak bytes/sec

	roiStart, roiEnd sim.Tick
	roiOpen          bool
}

// NewCollector builds a collector. peakBW is the peak bandwidth of the
// memory the compute cores use (GPU memory in the discrete system, the
// shared memory in the heterogeneous processor).
func NewCollector(lineBytes int, peakBW float64) *Collector {
	return &Collector{
		TL:         stats.NewTimeline(),
		Ctr:        stats.NewCounters(),
		LineBytes:  lineBytes,
		foot:       NewFootprint(lineBytes),
		cls:        NewClassifier(),
		stageBytes: make([]uint64, 1),
		peakBW:     peakBW,
	}
}

// BeginROI marks the region-of-interest start: host data is resident,
// nothing has been copied or launched yet.
func (c *Collector) BeginROI(t sim.Tick) {
	c.roiStart = t
	c.roiOpen = true
}

// EndROI marks ROI completion: all output is back in CPU-visible memory.
func (c *Collector) EndROI(t sim.Tick) {
	c.roiEnd = t
	c.roiOpen = false
}

// ROI reports the recorded region of interest.
func (c *Collector) ROI() (start, end sim.Tick) { return c.roiStart, c.roiEnd }

// PhaseSnapshot is the delta of every hardware counter across one
// pipeline-stage boundary: what the machine did between the previous
// boundary and this one. Exported per run in the -json sweep document.
type PhaseSnapshot struct {
	Seq      int       // boundary order, 1-based
	Boundary string    // "begin" or "end"
	StageID  int       // the stage whose boundary this is
	Kind     StageKind // that stage's kind
	Name     string    // that stage's name
	At       sim.Tick  // simulated time of the boundary
	Deltas   map[string]uint64
}

// snapshotPhase records the counter delta since the previous boundary.
// Empty deltas are kept: a boundary with no counter movement is itself
// information (e.g. a fully cache-resident CPU phase).
func (c *Collector) snapshotPhase(boundary string, s *Stage, at sim.Tick) {
	if c.HW == nil {
		return
	}
	if c.hwPrev == nil {
		c.hwPrev = c.HW.Snapshot()
	}
	c.Phases = append(c.Phases, PhaseSnapshot{
		Seq:      len(c.Phases) + 1,
		Boundary: boundary,
		StageID:  s.ID,
		Kind:     s.Kind,
		Name:     s.Name,
		At:       at,
		Deltas:   c.HW.TakeDelta(c.hwPrev),
	})
}

// addBusy is the single funnel for component busy time: one call feeds
// both the stats timeline and the trace's activity span.
func (c *Collector) addBusy(comp stats.Component, cat, name string, start, end sim.Tick) {
	c.TL.Add(comp, start, end)
	c.Tr.Activity(comp, cat, name, start, end)
}

// StageBegin opens a stage record and advances the global stage clock that
// the classifier keys on.
func (c *Collector) StageBegin(kind StageKind, name string, comp stats.Component, launchStart, launchDur, start sim.Tick) *Stage {
	s := &Stage{
		ID:          len(c.Stages) + 1,
		Kind:        kind,
		Name:        name,
		Comp:        comp,
		LaunchStart: launchStart,
		LaunchDur:   launchDur,
		Start:       start,
	}
	c.Stages = append(c.Stages, s)
	c.stageBytes = append(c.stageBytes, 0)
	c.SC.S = s.ID
	c.snapshotPhase("begin", s, start)
	return s
}

// StageEnd closes a stage record and logs its activity interval.
func (c *Collector) StageEnd(s *Stage, end sim.Tick, flops, bytes uint64) {
	s.End = end
	s.FLOPs = flops
	s.Bytes = bytes
	c.flops[s.Comp] += flops
	c.addBusy(s.Comp, "stage", s.Kind.String()+" "+s.Name, s.Start, s.End)
	c.snapshotPhase("end", s, end)
}

// AddActivityNamed records extra component activity outside a stage
// (e.g. CPU page-fault handler occupancy) under a descriptive trace label.
func (c *Collector) AddActivityNamed(comp stats.Component, name string, start, end sim.Tick) {
	c.addBusy(comp, "activity", name, start, end)
}

// OnDRAM is installed as the DRAM access hook: it feeds the classifier,
// per-component access counts, and per-stage bandwidth accounting.
func (c *Collector) OnDRAM(now sim.Tick, req memory.Request) {
	c.cls.Observe(uint64(req.Addr)>>c.foot.shift, req.Write, c.SC.S)
	c.dramByComp[req.Comp]++
	c.stageBytes[c.SC.S] += uint64(c.LineBytes)
}

// Classifier exposes the Section V-C classifier.
func (c *Collector) Classifier() *Classifier { return c.cls }

// DRAMAccesses reports off-chip accesses by requesting component.
func (c *Collector) DRAMAccesses() [stats.NumComponents]uint64 { return c.dramByComp }

// FLOPsByComp reports executed FLOPs per component.
func (c *Collector) FLOPsByComp() [stats.NumComponents]uint64 { return c.flops }

// Cserial computes Eq. 1's serial term: launch-overhead time during which no
// kernel or copy was executing to mask it.
func (c *Collector) Cserial() sim.Tick {
	// Activity intervals that can mask a launch.
	mask := stats.NewTimeline()
	for _, s := range c.Stages {
		if s.Kind == StageKernel || s.Kind == StageCopy {
			mask.Add(stats.GPU, s.Start, s.End)
		}
	}
	var total sim.Tick
	for _, s := range c.Stages {
		if s.Kind != StageKernel && s.Kind != StageCopy {
			continue
		}
		if s.LaunchDur <= 0 {
			continue
		}
		b := mask.Breakdown(s.LaunchStart, s.LaunchStart+s.LaunchDur)
		total += b.Idle() // portion of the launch window with nothing running
	}
	return total
}

// BWLimitedFraction reports the fraction of ROI time spent in stages whose
// achieved off-chip bandwidth exceeded threshold*peak — the paper's '*'
// bandwidth-limited marker.
func (c *Collector) BWLimitedFraction(threshold float64) float64 {
	roi := c.roiEnd - c.roiStart
	if roi <= 0 || c.peakBW <= 0 {
		return 0
	}
	var limited sim.Tick
	for _, s := range c.Stages {
		dur := s.End - s.Start
		if dur <= 0 {
			continue
		}
		bw := float64(c.stageBytes[s.ID]) / dur.Seconds()
		if bw > threshold*c.peakBW {
			limited += dur
		}
	}
	if limited > roi {
		limited = roi
	}
	return float64(limited) / float64(roi)
}
