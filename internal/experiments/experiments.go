// Package experiments regenerates every table and figure of the paper's
// evaluation from simulation runs: Table I (system parameters), Table II
// (pipeline-construct census), Figure 3 (kmeans case study), Figures 4-6
// (footprint / off-chip accesses / run-time activity, copy vs limited-copy),
// Figures 7-8 (component-overlap and migrated-compute estimates), and
// Figure 9 (off-chip access classification).
//
// The pipeline has three stages. RunSweep executes every (benchmark, mode)
// run — each an isolated simulation — through RunSpecs, the slot runner
// (run-store lookup, bounded worker pool, progress, Put) that FaultSweep,
// AblationSweep, cmd/hetsim and hetsimd's /v1/run call too, and assembles the outcomes
// deterministically, so the Results are byte-for-byte identical for every
// worker count. The FigNRows functions (rows.go) reduce a sweep to typed
// rows plus summaries. The renderers (render.go, csv.go, json.go) format
// those rows as text figures, CSV, or JSON without touching a report
// again.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Results caches one full sweep: every benchmark in copy and limited-copy
// mode, plus the restructured organizations where implemented. Sweeps are
// fault-tolerant: runs that fail land in Failed instead of aborting the
// sweep, and the figure renderers footnote them.
type Results struct {
	Size bench.Size
	// Copy and Limited are keyed by full benchmark name.
	Copy    map[string]*core.Report
	Limited map[string]*core.Report
	// Extra[mode] holds restructured-organization runs.
	Extra map[bench.Mode]map[string]*core.Report
	// Failed records every run that did not complete, in the registry's
	// stable (benchmark, mode) order regardless of how many workers ran
	// the sweep.
	Failed []harness.RunError
	// Notes records retry substitutions (e.g. a budget-exceeded medium run
	// that reran at small), in the same stable order.
	Notes []string
	// Runs holds per-run telemetry for every run of the sweep — success
	// and failure alike — in the registry's stable (benchmark, mode)
	// order. Exported as the "runs" section of the -json sweep doc.
	Runs []RunMeta
	// Skipped names the runs that never executed because the sweep was
	// canceled before dispatching them (empty for a completed sweep), in
	// the same stable order. A resumed sweep re-runs exactly these.
	Skipped []string
	// Traces holds one named recorder per run, in the same stable order,
	// when the sweep ran with SweepOpts.Trace. Nil otherwise.
	Traces []trace.RunTrace
}

// RunMeta is one run's outcome telemetry: the core fields every run
// reports whether it succeeded or failed, traced or untraced.
type RunMeta struct {
	Benchmark string
	Mode      bench.Mode
	Size      bench.Size // size that actually ran (may be degraded)
	Attempts  int
	Degraded  bool
	Failed    bool
	SimTime   sim.Tick
	Events    uint64
	// Wall is the run's total wall-clock cost across attempts. For a run
	// reused from the store this is the recorded cost of the original
	// execution, not the (near-zero) lookup time.
	Wall time.Duration
	// Phases carries the stage-boundary counter snapshots of the final
	// attempt (nil when the run produced no report).
	Phases []core.PhaseSnapshot
}

// SweepOpts configures a fault-tolerant sweep.
type SweepOpts struct {
	// Budget bounds each individual run (zero fields: unlimited). Prefer
	// MaxEvents when comparing sweeps across worker counts: the event
	// budget is deterministic, while a wall-clock Timeout burns faster
	// when runs share the machine with other workers.
	Budget harness.Budget
	// Fault injects hardware degradations into every run (the zero value
	// injects nothing).
	Fault config.FaultConfig
	// Only restricts the sweep to these full benchmark names (nil: all).
	Only []string
	// Jobs is the worker-pool size runs dispatch to: 0 means GOMAXPROCS,
	// 1 runs the sweep serially. Results are identical for every value.
	Jobs int
	// Parallel is each run's intra-run worker count (harness.Spec.
	// Parallel): 0 or 1 simulate serially; higher values pipeline trace
	// generation inside every run. Like Jobs it is a scheduling knob —
	// results are byte-identical for every value — so it is excluded from
	// every key.
	Parallel int
	// PerRun, if set, may adjust each run's spec before it executes — the
	// hook tests use to force a specific benchmark to fail. It is called
	// once per slot, serially, wherever the sweep's specs are built
	// (RunSweep before dispatch, SweepFingerprint), so run keys and the
	// sweep's key hash the adjusted spec.
	PerRun func(spec *harness.Spec)
	// Trace records a per-run trace for every run; the recorders come back
	// in Results.Traces for export.
	Trace bool
	// Progress, Ctx, Store and OnStored are handed to RunSpecs (see
	// Runner). Progress writes to its own stream, so the sweep's primary
	// output is unaffected; the runs Ctx keeps from starting come back in
	// Results.Skipped; Store is how an interrupted sweep resumes and how
	// overlapping sweeps and single runs share work.
	Progress *sweep.Tracker
	Ctx      context.Context
	Store    *store.Records
	OnStored func(n int)
	// RunCtx, when non-nil, cancels in-flight runs themselves: each run's
	// engine polls it and aborts as a KindCanceled failure. The commands
	// wire this to the second interrupt signal. Independent of Ctx — a
	// graceful shutdown cancels only Ctx.
	RunCtx context.Context
	// Stall arms each run's stall watchdog: a run whose simulated time
	// stops advancing for this long while events churn is killed as
	// KindStalled instead of spinning forever. Zero disables it.
	Stall time.Duration
	// RequestID is the correlation ID of the request this sweep serves
	// (hetsimd threads the sanitized X-Request-Id here). It rides into
	// each run's harness spec, where it lands as a request_id arg on the
	// lifecycle trace instants. Never part of a key: it does not affect
	// results.
	RequestID string
}

// RunSweep executes a fault-tolerant sweep: every selected benchmark in
// copy and limited-copy mode plus its extra modes, each isolated by the
// harness so one failing benchmark cannot abort the rest. Runs execute
// concurrently on opts.Jobs workers; because every run builds its own
// simulated machine and outcomes are collected per (benchmark, mode) slot
// and assembled in the registry's stable order, the Results — including
// the order of Failed and Notes — are identical for every worker count.
func RunSweep(size bench.Size, opts SweepOpts) (*Results, []harness.RunError) {
	r := &Results{
		Size:    size,
		Copy:    map[string]*core.Report{},
		Limited: map[string]*core.Report{},
		Extra: map[bench.Mode]map[string]*core.Report{
			bench.ModeAsyncStreams:    {},
			bench.ModeParallelChunked: {},
		},
	}
	// One slot per (benchmark, mode) run, in the registry's stable order —
	// the order the serial sweep ran in, and the order assembly below
	// walks regardless of which worker finishes first.
	specs := sweepSpecs(size, opts)
	// Stored slots come back from their records, so the sweep simulates
	// only the missing runs yet assembles the full result set —
	// byte-identical to a sweep that simulated everything.
	outs := RunSpecs(specs, opts.runner())

	for i, spec := range specs {
		out := outs[i]
		name, mode := spec.Bench.Info().FullName(), spec.Mode
		if out == nil {
			// Never dispatched: the sweep was canceled first. Not a
			// failure — a resumed sweep re-runs exactly these.
			r.Skipped = append(r.Skipped, name+" "+mode.String())
			continue
		}
		meta := RunMeta{
			Benchmark: name, Mode: mode, Size: out.Size,
			Attempts: out.Attempts, Degraded: out.Degraded, Failed: out.Err != nil,
			SimTime: out.SimTime, Events: out.Events, Wall: out.Wall,
		}
		if out.Report != nil {
			meta.Phases = out.Report.Phases
		}
		r.Runs = append(r.Runs, meta)
		if opts.Trace {
			r.Traces = append(r.Traces, trace.RunTrace{
				Name: name + " " + mode.String() + " " + out.Size.String(),
				Rec:  spec.Trace,
			})
		}
		if out.Err != nil {
			r.Failed = append(r.Failed, *out.Err)
			continue
		}
		var dst map[string]*core.Report
		switch mode {
		case bench.ModeCopy:
			dst = r.Copy
		case bench.ModeLimitedCopy:
			dst = r.Limited
		default:
			if r.Extra[mode] == nil {
				r.Extra[mode] = map[string]*core.Report{}
			}
			dst = r.Extra[mode]
		}
		dst[name] = out.Report
		if out.Degraded {
			r.Notes = append(r.Notes, fmt.Sprintf("%s (%s) ran at size %s after exceeding its budget at %s",
				name, mode, out.Size, size))
		}
	}
	return r, r.Failed
}

// Names lists benchmark names with both copy and limited-copy runs
// completed, sorted — the rows the comparative figures can render. Failed
// benchmarks are footnoted instead (see Footnotes).
func (r *Results) Names() []string {
	out := make([]string, 0, len(r.Copy))
	for n := range r.Copy {
		if _, ok := r.Limited[n]; ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Footnotes is the failed-run and substitution metadata appended to every
// rendered figure of a partial sweep — part of each figure's row data, in
// marshal-friendly form.
type Footnotes struct {
	Failed []harness.RunErrorJSON `json:"failed,omitempty"`
	Notes  []string               `json:"notes,omitempty"`
}

// Footnotes converts the sweep's failures and substitution notes for the
// renderers.
func (r *Results) Footnotes() Footnotes {
	fn := Footnotes{Notes: r.Notes}
	for i := range r.Failed {
		fn.Failed = append(fn.Failed, r.Failed[i].JSON())
	}
	return fn
}

// String renders the footnote block (empty for a full sweep): failed runs
// as † lines, substitutions as ‡ lines.
func (f Footnotes) String() string {
	if len(f.Failed) == 0 && len(f.Notes) == 0 {
		return ""
	}
	var b strings.Builder
	for _, e := range f.Failed {
		fmt.Fprintf(&b, "† %s (%s) failed [%s]: %s\n", e.Benchmark, e.Mode, e.Kind, e.Msg)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "‡ %s\n", n)
	}
	return b.String()
}

// geomean of a slice of positive ratios. Non-finite entries (the residue
// of failed or degenerate runs) are skipped so partial sweeps never emit
// NaN into a figure; non-positive entries are clamped.
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x <= 0 {
			x = 1e-12
		}
		s += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// pct guards a percentage against a zero or non-finite denominator: failed
// or empty runs must render as 0%, never NaN/Inf.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	v := 100 * num / den
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Table1 renders the Table I system parameters.
func Table1() string {
	var b strings.Builder
	d, h := config.DiscreteGPU(), config.HeteroProcessor()
	fmt.Fprintf(&b, "TABLE I. HETEROGENEOUS SYSTEM PARAMETERS\n")
	fmt.Fprintf(&b, "%-22s %s\n", "Component", "Parameters")
	fmt.Fprintf(&b, "%-22s (%d) %d-wide out-of-order, x86-like, %.1fGHz, %.0f GFLOP/s peak each\n",
		"CPU cores", d.CPU.Cores, d.CPU.IssueWidth, d.CPU.ClockHz/1e9, d.CPU.PeakFLOPs()/float64(d.CPU.Cores)/1e9)
	fmt.Fprintf(&b, "%-22s per-core %dkB L1I + %dkB L1D, private %dkB L2, %dB lines\n",
		"CPU caches", d.CPU.L1IBytes/1024, d.CPU.L1DBytes/1024, d.CPU.L2Bytes/1024, d.LineBytes)
	fmt.Fprintf(&b, "%-22s (%d) %d CTAs, %d warps of %d threads, %.0fMHz, %.1f GFLOP/s peak each\n",
		"GPU cores (SMs)", d.GPU.SMs, d.GPU.MaxCTAsPerSM, d.GPU.MaxWarpsPerSM, d.GPU.WarpSize,
		d.GPU.ClockHz/1e6, d.GPU.PeakFLOPs()/float64(d.GPU.SMs)/1e9)
	fmt.Fprintf(&b, "%-22s %dkB scratch + %dkB L1 per SM; shared %dkB L2, %d banks\n",
		"GPU caches", d.GPU.ScratchBytesPkSM/1024, d.GPU.L1Bytes/1024, d.GPU.L2Bytes/1024, d.GPU.L2Banks)
	fmt.Fprintf(&b, "-- Discrete GPU system --\n")
	fmt.Fprintf(&b, "%-22s (%d) %s channels, %.0f GB/s peak\n", "CPU memory", d.CPUMem.Channels, d.CPUMem.Name, d.CPUMem.BytesPerSec/1e9)
	fmt.Fprintf(&b, "%-22s (%d) %s channels, %.0f GB/s peak\n", "GPU memory", d.GPUMem.Channels, d.GPUMem.Name, d.GPUMem.BytesPerSec/1e9)
	fmt.Fprintf(&b, "%-22s %.0f GB/s peak, GPU-local page faults\n", "PCI Express", d.PCIe.BytesPerSec/1e9)
	fmt.Fprintf(&b, "-- Heterogeneous CPU-GPU processor --\n")
	fmt.Fprintf(&b, "%-22s (%d) %s channels, %.0f GB/s peak, shared\n", "Memory", h.GPUMem.Channels, h.GPUMem.Name, h.GPUMem.BytesPerSec/1e9)
	fmt.Fprintf(&b, "%-22s coherent 12-port switch, c2c %.0fns; GPU faults CPU-handled (%.1fus)\n",
		"Interconnect", h.CacheToCacheNs, h.VM.CPUFaultServUs)
	return b.String()
}

// Table2TextOf renders Table II rows. The percentage line routes through
// pct so a zero total renders as 0% instead of NaN, and an empty census
// renders as just the header instead of panicking.
func Table2TextOf(rows []bench.Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II. PRODUCER-CONSUMER RELATIONSHIPS IN BENCHMARKS\n")
	fmt.Fprintf(&b, "%-10s %5s %8s %6s %8s %9s %8s\n", "Suite", "Num", "P-CComm", "Pipe", "Regular", "Irregular", "SWQueue")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %5d %8d %6d %8d %9d %8d\n",
			r.Suite, r.Num, r.PCComm, r.PipeParal, r.Regular, r.Irreg, r.SWQue)
	}
	if len(rows) == 0 {
		return b.String()
	}
	tot := rows[len(rows)-1]
	den := float64(tot.Num)
	fmt.Fprintf(&b, "%-10s %5s %7.0f%% %5.0f%% %7.0f%% %8.0f%% %7.0f%%\n", "portion", "100%",
		pct(float64(tot.PCComm), den), pct(float64(tot.PipeParal), den),
		pct(float64(tot.Regular), den), pct(float64(tot.Irreg), den),
		pct(float64(tot.SWQue), den))
	return b.String()
}

// Table2Text renders Table II from the census.
func Table2Text() string {
	return Table2TextOf(bench.Table2())
}
