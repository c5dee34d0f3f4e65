// Package bench is the benchmark framework: the registry the suites
// register into, the run modes corresponding to the paper's benchmark
// configurations, size presets, and the runner that builds the right
// simulated system for a mode and produces an analysis report.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/device"
)

// Mode selects the benchmark organization, following the paper:
type Mode int

const (
	// ModeCopy is the unmodified discrete-GPU version with explicit
	// cudaMemcpy-style copies (the paper's baseline).
	ModeCopy Mode = iota
	// ModeLimitedCopy is the ported version with mirrored allocations
	// eliminated, run on the heterogeneous processor.
	ModeLimitedCopy
	// ModeAsyncStreams is the kernel-fission + asynchronous-streams
	// restructuring on the discrete system (Section II / V-A validation).
	ModeAsyncStreams
	// ModeParallelChunked is the chunked producer-consumer restructuring on
	// the heterogeneous processor using in-memory signals ("Parallel +
	// Cache" in Figure 3).
	ModeParallelChunked
	NumModes
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCopy:
		return "copy"
	case ModeLimitedCopy:
		return "limited-copy"
	case ModeAsyncStreams:
		return "async-streams"
	case ModeParallelChunked:
		return "parallel-chunked"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode maps a mode's wire/CLI name back to the Mode. Every name
// String produces round-trips.
func ParseMode(s string) (Mode, error) {
	for m := Mode(0); m < NumModes; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// Size selects input scale. Small keeps CI fast; Medium reproduces the
// paper's cache-pressure regime (per-stage working sets well beyond the 1MB
// GPU L2).
type Size int

const (
	SizeSmall Size = iota
	SizeMedium
)

// String names the size preset.
func (s Size) String() string {
	switch s {
	case SizeSmall:
		return "small"
	case SizeMedium:
		return "medium"
	default:
		return fmt.Sprintf("size(%d)", int(s))
	}
}

// ParseSize maps a size's wire/CLI name back to the Size. Every name
// String produces for a preset round-trips.
func ParseSize(s string) (Size, error) {
	for _, z := range []Size{SizeSmall, SizeMedium} {
		if z.String() == s {
			return z, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (want small or medium)", s)
}

// Smaller returns the next-smaller size preset, if one exists — the
// harness's budget-exceeded degradation path retries there.
func (s Size) Smaller() (Size, bool) {
	if s == SizeMedium {
		return SizeSmall, true
	}
	return s, false
}

// ScaleN scales a base element count by the size preset.
func ScaleN(base int, size Size) int {
	if size == SizeMedium {
		return base * 4
	}
	return base
}

// ScaleSide scales a side length (2-D/3-D problems) by the size preset —
// doubling the side quadruples cells, keeping medium runs tractable while
// pushing per-stage working sets past the 1MB GPU L2 as the paper's inputs
// did.
func ScaleSide(base int, size Size) int {
	if size == SizeMedium {
		return base * 2
	}
	return base
}

// Info describes a benchmark and its Table II pipeline characteristics.
type Info struct {
	Suite string
	Name  string
	Desc  string

	// Table II flags.
	PCComm    bool // has producer-consumer pipeline interactions
	PipeParal bool // stages could run concurrently / in closer proximity
	Regular   bool // has regular P-C constructs
	Irregular bool // has irregular control/memory behaviour
	SWQueue   bool // uses software worklists

	// Extra modes beyond copy and limited-copy this implementation supports.
	ExtraModes []Mode
}

// FullName is "suite/name".
func (i Info) FullName() string { return i.Suite + "/" + i.Name }

// Modes lists every organization the benchmark supports: the two baseline
// modes every benchmark runs plus its registered extra organizations.
func (i Info) Modes() []Mode {
	return append([]Mode{ModeCopy, ModeLimitedCopy}, i.ExtraModes...)
}

// Supports reports whether the benchmark runs in the given mode.
func (i Info) Supports(m Mode) bool {
	if m == ModeCopy || m == ModeLimitedCopy {
		return true
	}
	for _, e := range i.ExtraModes {
		if e == m {
			return true
		}
	}
	return false
}

// Benchmark is one runnable workload. Run must call BeginROI/EndROI itself
// (the ROI excludes input generation, per the paper's data-location rules).
type Benchmark interface {
	Info() Info
	Run(s *device.System, mode Mode, size Size)
}

var registry = map[string]Benchmark{}

// Register adds a benchmark; the suites call this from init.
func Register(b Benchmark) {
	name := b.Info().FullName()
	if _, dup := registry[name]; dup {
		panic("bench: duplicate benchmark " + name)
	}
	registry[name] = b
}

// Get looks a benchmark up by "suite/name".
func Get(name string) (Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// All returns every registered benchmark sorted by full name.
func All() []Benchmark {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// ConfigFor returns the system configuration a mode runs on: copy-based
// modes use the discrete GPU system, copy-free modes the heterogeneous
// processor.
func ConfigFor(m Mode) config.System {
	switch m {
	case ModeCopy, ModeAsyncStreams:
		return config.DiscreteGPU()
	default:
		return config.HeteroProcessor()
	}
}

// SystemFor builds the simulated machine a mode runs on.
func SystemFor(m Mode) *device.System {
	return device.NewSystem(ConfigFor(m))
}

// Execute runs one benchmark in one mode and returns the analysis report.
func Execute(b Benchmark, mode Mode, size Size) *core.Report {
	if !b.Info().Supports(mode) {
		panic(fmt.Sprintf("bench: %s does not support %s", b.Info().FullName(), mode))
	}
	s := SystemFor(mode)
	b.Run(s, mode, size)
	start, end := s.Col.ROI()
	if end <= start {
		panic(fmt.Sprintf("bench: %s (%s) recorded no ROI", b.Info().FullName(), mode))
	}
	return s.Report(b.Info().FullName(), mode.String())
}

// ExecuteWithResult runs one benchmark and also returns the functional
// output digests it published with System.AddResult — the hook correctness
// tests use to compare organizations against each other and against
// reference implementations.
func ExecuteWithResult(b Benchmark, mode Mode, size Size) (*core.Report, []float64) {
	if !b.Info().Supports(mode) {
		panic(fmt.Sprintf("bench: %s does not support %s", b.Info().FullName(), mode))
	}
	s := SystemFor(mode)
	b.Run(s, mode, size)
	return s.Report(b.Info().FullName(), mode.String()), s.Result
}

// ExecuteOnSystem runs one benchmark on a caller-built machine — the hook
// the ablation studies use to sweep configuration knobs.
func ExecuteOnSystem(b Benchmark, s *device.System, mode Mode, size Size) *core.Report {
	if !b.Info().Supports(mode) {
		panic(fmt.Sprintf("bench: %s does not support %s", b.Info().FullName(), mode))
	}
	b.Run(s, mode, size)
	return s.Report(b.Info().FullName(), mode.String())
}
