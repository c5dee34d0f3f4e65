package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
)

// FaultCase pairs one benchmark run with one injected hardware fault,
// chosen so the fault hits the run's bottleneck component: a throttled
// PCIe link against the copy-dominated kmeans, a slow page-fault handler
// against srad (the paper's worst fault victim), and a stalled DRAM
// channel against the bandwidth-bound spmv.
type FaultCase struct {
	Label string
	Bench string
	Mode  bench.Mode
	Plan  config.FaultConfig
}

// FaultCases is the -exp faults degradation matrix.
func FaultCases() []FaultCase {
	return []FaultCase{
		{"pcie-throttle", "rodinia/kmeans", bench.ModeCopy, config.FaultConfig{PCIeBWFrac: 0.25}},
		{"slow-fault-handler", "rodinia/srad", bench.ModeLimitedCopy, config.FaultConfig{FaultLatMult: 8}},
		{"dram-channel-stall", "parboil/spmv", bench.ModeLimitedCopy,
			config.FaultConfig{DRAMStallChannel: 0, DRAMStallStartUs: 0, DRAMStallEndUs: 400}},
	}
}

// FaultRow is one fault case's paired baseline and injected runs. An
// outcome is nil when an interrupt kept the run from starting; a failed
// run's outcome has no Report and carries its diagnostic in Err.
type FaultRow struct {
	Case               FaultCase
	Baseline, Injected *harness.Outcome
}

// report is out's report: nil for a skipped or failed run.
func report(out *harness.Outcome) *core.Report {
	if out == nil {
		return nil
	}
	return out.Report
}

// Slowdown is injected ROI over baseline ROI (0 when either run is
// missing).
func (fr *FaultRow) Slowdown() float64 {
	base, inj := report(fr.Baseline), report(fr.Injected)
	if base == nil || inj == nil || base.ROI <= 0 {
		return 0
	}
	return float64(inj.ROI) / float64(base.ROI)
}

// ModelsFinite reports whether both runs completed with positive, finite
// ROI and model estimates (Eq. 1 Rco, Eqs. 2-4 Rmc) — the acceptance
// check that fault injection degrades the simulated machine without
// breaking the analytical models.
func (fr *FaultRow) ModelsFinite() bool {
	ok := func(r *core.Report) bool {
		if r == nil {
			return false
		}
		for _, v := range []float64{float64(r.ROI), float64(r.Rco), float64(r.Rmc)} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	return ok(report(fr.Baseline)) && ok(report(fr.Injected))
}

// FaultSweep runs every fault case twice — nominal hardware and injected
// fault — through RunSpecs with opts, as a sweep's runs are, so a nominal
// run is the sweep slot of its benchmark and mode. The matrix fixes each
// run's benchmark and faults, so opts.Only, Fault, PerRun and Trace do
// not apply.
func FaultSweep(size bench.Size, opts SweepOpts) []FaultRow {
	tmpl := specTemplate(size, opts)
	var rows []FaultRow
	var specs []harness.Spec
	for _, fc := range FaultCases() {
		b, ok := bench.Get(fc.Bench)
		if !ok {
			continue
		}
		for _, faults := range []config.FaultConfig{{}, fc.Plan} {
			spec := tmpl
			spec.Bench, spec.Mode, spec.Machine = b, fc.Mode, withFaults(fc.Mode, faults)
			specs = append(specs, spec)
		}
		rows = append(rows, FaultRow{Case: fc})
	}
	outs := RunSpecs(specs, opts.runner())
	for i := range rows {
		rows[i].Baseline, rows[i].Injected = outs[2*i], outs[2*i+1]
	}
	return rows
}

// FaultSweepText renders the fault-injection experiment.
func FaultSweepText(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAULT INJECTION. Degraded hardware vs nominal (ROI slowdown; models must stay finite)\n")
	fmt.Fprintf(&b, "%-20s %-24s %-14s %-22s %9s %9s %9s  %s\n",
		"fault", "benchmark", "mode", "plan", "base-ms", "inj-ms", "slowdown", "models")
	for i := range rows {
		fr := &rows[i]
		models := "finite"
		switch {
		case fr.Baseline == nil || fr.Injected == nil:
			models = "skipped"
		case !fr.ModelsFinite():
			models = "BROKEN"
		}
		fmt.Fprintf(&b, "%-20s %-24s %-14s %-22s %9s %9s %8.2fx  %s\n",
			fr.Case.Label, fr.Case.Bench, fr.Case.Mode, fr.Case.Plan,
			roiCell(fr.Baseline), roiCell(fr.Injected), fr.Slowdown(), models)
		writeFailure(&b, fr.Baseline)
		writeFailure(&b, fr.Injected)
	}
	return b.String()
}

// writeFailure writes a failed run's † footnote line; it writes nothing
// for a skipped or completed run.
func writeFailure(b *strings.Builder, out *harness.Outcome) {
	if out != nil && out.Err != nil {
		e := out.Err
		fmt.Fprintf(b, "† %s (%s) failed [%s]: %s\n", e.Benchmark, e.Mode, e.Kind, e.Msg)
	}
}

// roiCell is one run's ROI in the fault and ablation tables, or why there
// is none.
func roiCell(out *harness.Outcome) string {
	switch {
	case out == nil:
		return "skipped"
	case out.Report == nil:
		return "failed"
	}
	return fmt.Sprintf("%9.3f", out.Report.ROI.Millis())
}
