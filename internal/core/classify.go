// Package core implements the paper's contribution: the application-level
// pipeline inefficiency analysis. It collects per-stage component activity
// (Fig 3, 6), memory footprint partitions (Fig 4), per-component off-chip
// access counts (Fig 5), the off-chip access classification of Section V-C
// (Fig 9), and the analytical models of Sections V-A and V-B — the
// component-overlap estimate (Eq. 1, Fig 7) and the migrated-compute
// estimate (Eqs. 2-4, Fig 8).
package core

import (
	"repro/internal/memory"
)

// Class is one off-chip access category from Section V-C.
type Class int

const (
	// ClassCompulsory: first off-chip read from, or last write to, a line.
	ClassCompulsory Class = iota
	// ClassLongRange: reuse spanning more than one pipeline stage. The
	// paper groups these with compulsory as "required" accesses.
	ClassLongRange
	// ClassWRSpill: producer-consumer data written off-chip in one stage
	// and read in the next — the paper counts both the write and the
	// subsequent read.
	ClassWRSpill
	// ClassRRSpill: data read in consecutive stages (shared stage input).
	ClassRRSpill
	// ClassWRContention: a line written back and re-read within the same
	// stage — the writeback happened before all uses completed.
	ClassWRContention
	// ClassRRContention: a line re-read off-chip within the same stage —
	// the stage's concurrent working set exceeds cache capacity.
	ClassRRContention
	NumClasses
)

// String names the class as in Figure 9.
func (c Class) String() string {
	switch c {
	case ClassCompulsory:
		return "Compulsory"
	case ClassLongRange:
		return "Long-Range"
	case ClassWRSpill:
		return "W-R Spill"
	case ClassRRSpill:
		return "R-R Spill"
	case ClassWRContention:
		return "W-R Contention"
	case ClassRRContention:
		return "R-R Contention"
	default:
		return "Class(?)"
	}
}

// lineHist is one line's access history, packed into 8 bytes.
type lineHist struct {
	lastStage int32
	seen      bool
	lastWrite bool
	// pendingWrite marks that the line's most recent access was a write we
	// provisionally classified Compulsory ("last write"); the next access
	// to the line retroactively resolves it into the pair class.
	pendingWrite bool
}

// Classifier implements the Section V-C off-chip access taxonomy. It
// observes every DRAM access with the pipeline stage active at that time.
//
// Writes are provisionally Compulsory (every write could be the last write
// to its data); a later access to the same line reclassifies the write into
// the W-R pair class implied by the reuse distance. Reads are classified
// directly from (previous access type, stage distance).
type Classifier struct {
	lines  memory.Table[lineHist] // indexed by line number
	counts [NumClasses]uint64
	total  uint64
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier { return &Classifier{} }

// Observe records one off-chip access to the given line number (address
// divided by the line size) during stage.
func (cl *Classifier) Observe(line uint64, write bool, stage int) {
	cl.total++
	h := cl.lines.At(line)

	if h.seen && h.pendingWrite {
		// Resolve the earlier write now that we know it was not the last.
		cl.counts[ClassCompulsory]--
		cl.counts[cl.pairClass(true, stage-int(h.lastStage))]++
		h.pendingWrite = false
	}

	var c Class
	switch {
	case !h.seen:
		c = ClassCompulsory
	case write:
		// Provisional: resolved by the next access, if any.
		c = ClassCompulsory
	default:
		c = cl.pairClass(h.lastWrite, stage-int(h.lastStage))
	}
	cl.counts[c]++

	h.seen = true
	h.lastWrite = write
	h.lastStage = int32(stage)
	h.pendingWrite = write && c == ClassCompulsory
}

// pairClass maps (previous access was a write, stage distance) to a class.
func (cl *Classifier) pairClass(prevWrite bool, dist int) Class {
	switch {
	case dist <= 0 && prevWrite:
		return ClassWRContention
	case dist <= 0:
		return ClassRRContention
	case dist == 1 && prevWrite:
		return ClassWRSpill
	case dist == 1:
		return ClassRRSpill
	default:
		return ClassLongRange
	}
}

// Counts returns the per-class totals.
func (cl *Classifier) Counts() [NumClasses]uint64 { return cl.counts }

// Total returns the number of observed accesses.
func (cl *Classifier) Total() uint64 { return cl.total }
