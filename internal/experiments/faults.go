package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bench"
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
	Plan  harness.FaultPlan
}

// FaultCases is the -exp faults degradation matrix.
func FaultCases() []FaultCase {
	return []FaultCase{
		{
			Label: "pcie-throttle", Bench: "rodinia/kmeans", Mode: bench.ModeCopy,
			Plan: harness.FaultPlan{PCIeBWFrac: 0.25},
		},
		{
			Label: "slow-fault-handler", Bench: "rodinia/srad", Mode: bench.ModeLimitedCopy,
			Plan: harness.FaultPlan{FaultLatMult: 8},
		},
		{
			Label: "dram-channel-stall", Bench: "parboil/spmv", Mode: bench.ModeLimitedCopy,
			Plan: harness.FaultPlan{DRAMStallChannel: 0, DRAMStallStartUs: 0, DRAMStallEndUs: 400},
		},
	}
}

// FaultRow is one fault case's paired baseline and injected runs. Either
// report may be nil when the corresponding run failed; the failures are in
// Errs.
type FaultRow struct {
	Case     FaultCase
	Baseline *core.Report
	Injected *core.Report
	Errs     []harness.RunError
}

// Slowdown is injected ROI over baseline ROI (0 when either run failed).
func (fr *FaultRow) Slowdown() float64 {
	if fr.Baseline == nil || fr.Injected == nil || fr.Baseline.ROI <= 0 {
		return 0
	}
	return float64(fr.Injected.ROI) / float64(fr.Baseline.ROI)
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
	return ok(fr.Baseline) && ok(fr.Injected)
}

// FaultSweep runs every fault case twice — nominal hardware and injected
// fault — under the harness, so even a fault that wedges the simulated
// machine terminates with a diagnostic instead of hanging the sweep. par is
// each run's intra-run worker count (harness.Spec.Parallel).
func FaultSweep(size bench.Size, budget harness.Budget, par int) []FaultRow {
	var rows []FaultRow
	for _, fc := range FaultCases() {
		b, ok := bench.Get(fc.Bench)
		if !ok {
			continue
		}
		row := FaultRow{Case: fc}
		run := func(plan *harness.FaultPlan) *core.Report {
			out := harness.Run(harness.Spec{Bench: b, Mode: fc.Mode, Size: size, Budget: budget, Fault: plan, Parallel: par})
			if out.Err != nil {
				row.Errs = append(row.Errs, *out.Err)
				return nil
			}
			return out.Report
		}
		row.Baseline = run(nil)
		plan := fc.Plan
		row.Injected = run(&plan)
		rows = append(rows, row)
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
		base, inj := "failed", "failed"
		if fr.Baseline != nil {
			base = fmt.Sprintf("%9.3f", fr.Baseline.ROI.Millis())
		}
		if fr.Injected != nil {
			inj = fmt.Sprintf("%9.3f", fr.Injected.ROI.Millis())
		}
		models := "finite"
		if !fr.ModelsFinite() {
			models = "BROKEN"
		}
		plan := fr.Case.Plan
		fmt.Fprintf(&b, "%-20s %-24s %-14s %-22s %9s %9s %8.2fx  %s\n",
			fr.Case.Label, fr.Case.Bench, fr.Case.Mode, plan.String(), base, inj, fr.Slowdown(), models)
		for _, e := range fr.Errs {
			fmt.Fprintf(&b, "† %s (%s) failed [%s]: %s\n", e.Benchmark, e.Mode, e.Kind, e.Msg)
		}
	}
	return b.String()
}
