package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/harness"
)

// This file is the render half of every figure: each renderer formats the
// typed rows its FigNRows counterpart computed, plus the sweep's footnote
// metadata — no renderer touches a core.Report. Fig3Text..Fig10Text keep
// the historical convenience signature over a *Results; the RenderFigN
// functions are the row-only render steps the convenience wrappers (and
// any caller holding rows from JSON) compose.

// RenderFig3 formats the kmeans case study from its rows, footnoting the
// organizations that failed; without rows it says whether the baseline
// failed or never ran (left out of the sweep or skipped by an interrupt).
func RenderFig3(rows []Fig3Row, errs []harness.RunError) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 3. Kmeans run times by organization (normalized to Baseline; * = estimated)\n")
	for _, r := range rows {
		star := " "
		if r.Estimated {
			star = "*"
		}
		fmt.Fprintf(&b, "  %-20s%s %6.3f   GPU util %5.1f%%  %s\n",
			r.Org, star, r.RunTime, 100*r.GPUUtil, bar(r.RunTime, 40))
	}
	switch {
	case len(rows) > 0:
	case slices.ContainsFunc(errs, func(e harness.RunError) bool { return e.Mode == bench.ModeCopy }):
		fmt.Fprintf(&b, "  (baseline failed; nothing to normalize against)\n")
	default:
		fmt.Fprintf(&b, "  (no %s baseline run in this sweep; nothing to normalize against)\n", fig3Bench)
	}
	for _, e := range errs {
		fmt.Fprintf(&b, "† %s (%s) failed [%s]: %s\n", e.Benchmark, e.Mode, e.Kind, e.Msg)
	}
	return b.String()
}

// Fig3Text renders Figure 3 from a sweep.
func Fig3Text(r *Results) string {
	return RenderFig3(Fig3Rows(r))
}

func bar(frac float64, width int) string {
	n := int(frac * float64(width))
	if n < 0 {
		n = 0
	}
	if n > 2*width {
		n = 2 * width
	}
	return strings.Repeat("#", n)
}

// RenderFig4 formats the footprint partition figure from its rows.
func RenderFig4(rows []Fig4Row, sum Fig4Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4. Memory footprint by component set (normalized to copy total)\n")
	fmt.Fprintf(&b, "%-24s %-8s %7s  %s\n", "benchmark", "version", "total", "CPU/GPU/Copy/CPU+GPU/CPU+Copy/GPU+Copy/all")
	last := ""
	for _, row := range rows {
		label := row.Benchmark
		if label == last {
			label = ""
		}
		last = row.Benchmark
		fracs := make([]string, 0, len(row.Sets))
		for _, set := range row.Sets {
			fracs = append(fracs, fmt.Sprintf("%4.1f%%", set.Pct))
		}
		fmt.Fprintf(&b, "%-24s %-8s %6.1f%%  %s\n", label, row.Version,
			row.TotalPct, strings.Join(fracs, " "))
	}
	fmt.Fprintf(&b, "geomean limited-copy footprint: %.1f%% of copy footprint\n", sum.GeomeanLimitedPct)
	b.WriteString(fn.String())
	return b.String()
}

// Fig4Text renders Figure 4 from a sweep.
func Fig4Text(r *Results) string {
	rows, sum := Fig4Rows(r)
	return RenderFig4(rows, sum, r.Footnotes())
}

// RenderFig5 formats the off-chip access breakdown from its rows (which
// come in copy/limited pairs per benchmark).
func RenderFig5(rows []Fig5Row, sum Fig5Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 5. Off-chip memory accesses by component (normalized to copy total)\n")
	fmt.Fprintf(&b, "%-24s %9s %9s %9s | %9s %9s   %s\n", "benchmark", "cpu", "gpu", "copy", "lim-cpu", "lim-gpu", "lim-total")
	for i := 0; i+1 < len(rows); i += 2 {
		cv, lv := rows[i], rows[i+1]
		fmt.Fprintf(&b, "%-24s %8.1f%% %8.1f%% %8.1f%% | %8.1f%% %8.1f%%   %6.1f%%\n", cv.Benchmark,
			cv.CPUPct, cv.GPUPct, cv.CopyPct, lv.CPUPct, lv.GPUPct, lv.TotalPct)
	}
	fmt.Fprintf(&b, "geomean copy-access share of copy version: %.1f%%\n", sum.GeomeanCopySharePct)
	fmt.Fprintf(&b, "geomean limited-copy total accesses: %.1f%% of copy version\n", sum.GeomeanLimitedTotalPct)
	b.WriteString(fn.String())
	return b.String()
}

// Fig5Text renders Figure 5 from a sweep.
func Fig5Text(r *Results) string {
	rows, sum := Fig5Rows(r)
	return RenderFig5(rows, sum, r.Footnotes())
}

// RenderFig6 formats the run-time activity breakdown from its rows.
func RenderFig6(rows []Fig6Row, sum Fig6Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 6. Run-time component activity (normalized to copy run time)\n")
	fmt.Fprintf(&b, "%-24s %-8s %7s %7s %7s %7s %8s %6s\n", "benchmark", "version", "total", "copyact", "cpuact", "gpuact", "overlap", "idle")
	last := ""
	for _, row := range rows {
		label := row.Benchmark
		if label == last {
			label = ""
		}
		last = row.Benchmark
		fmt.Fprintf(&b, "%-24s %-8s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %7.1f%% %5.1f%%\n", label, row.Version,
			row.TotalPct, row.CopyActPct, row.CPUActPct, row.GPUActPct, row.OverlapPct, row.IdlePct)
	}
	fmt.Fprintf(&b, "geomean limited-copy run time: %.1f%% of copy (%.1f%% improvement)\n",
		sum.GeomeanLimitedRunPct, sum.ImprovementPct)
	b.WriteString(fn.String())
	return b.String()
}

// Fig6Text renders Figure 6 from a sweep.
func Fig6Text(r *Results) string {
	rows, sum := Fig6Rows(r)
	return RenderFig6(rows, sum, r.Footnotes())
}

// RenderFig7 formats the component-overlap estimates from the shared
// model rows (copy/limited pairs per benchmark).
func RenderFig7(rows []Fig78Row, sum Fig7Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 7. Component-overlap run-time estimates, Eq. 1 (normalized to copy run time)\n")
	fmt.Fprintf(&b, "%-24s %10s %11s %12s %13s\n", "benchmark", "copy Rco", "copy gain", "limited Rco", "limited gain")
	for i := 0; i+1 < len(rows); i += 2 {
		cv, lv := rows[i], rows[i+1]
		fmt.Fprintf(&b, "%-24s %9.1f%% %10.1f%% %11.1f%% %12.1f%%\n", cv.Benchmark,
			cv.RcoPct, cv.RcoGainPct, lv.RcoPct, lv.RcoGainPct)
	}
	fmt.Fprintf(&b, "geomean copy-version overlap gain: %.1f%%\n", sum.GeomeanOverlapGainPct)

	// Validation against the restructured implementations (Section V-A).
	fmt.Fprintf(&b, "validation (measured restructured vs estimate):\n")
	for _, v := range sum.Validations {
		fmt.Fprintf(&b, "  %-22s %s measured %6.3fms vs %s %6.3fms (%+.1f%%)\n",
			v.Benchmark, v.Mode, v.MeasuredMs, v.Against, v.EstimateMs, v.DeltaPct)
	}
	b.WriteString(fn.String())
	return b.String()
}

// Fig7Text renders Figure 7 from a sweep.
func Fig7Text(r *Results) string {
	rows, sum, _ := Fig78Rows(r)
	return RenderFig7(rows, sum, r.Footnotes())
}

// RenderFig8 formats the migrated-compute estimates from the shared model
// rows (copy/limited pairs per benchmark).
func RenderFig8(rows []Fig78Row, sum Fig8Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 8. Migrated-compute run-time estimates, Eqs. 2-4 (normalized to copy run time)\n")
	fmt.Fprintf(&b, "%-24s %10s %12s %13s\n", "benchmark", "copy Rmc", "limited Rmc", "vs limited")
	for i := 0; i+1 < len(rows); i += 2 {
		cv, lv := rows[i], rows[i+1]
		fmt.Fprintf(&b, "%-24s %9.1f%% %11.1f%% %12.1f%%\n", cv.Benchmark,
			cv.RmcPct, lv.RmcPct, lv.RmcGainPct)
	}
	fmt.Fprintf(&b, "geomean potential gain from migrating compute (limited-copy): %.1f%%\n", sum.GeomeanMigrateGainPct)
	b.WriteString(fn.String())
	return b.String()
}

// Fig8Text renders Figure 8 from a sweep.
func Fig8Text(r *Results) string {
	rows, _, sum := Fig78Rows(r)
	return RenderFig8(rows, sum, r.Footnotes())
}

// RenderFig10 formats the measured-overlap figure from its rows: each
// async-streams organization's measured run time next to the Eq. 1 Rco
// bound, both normalized to the copy-mode baseline run, with the gap
// over the bound attributed to exposed copy time and idle time.
func RenderFig10(rows []Fig10Row, sum Fig10Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 10. Measured async-streams run time vs the Eq. 1 Rco bound (normalized to copy run time)\n")
	fmt.Fprintf(&b, "%-24s %7s %9s %8s %9s %6s\n",
		"benchmark", "bound", "measured", "gap", "exp-copy", "idle")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-24s %6.1f%% %8.1f%% %+7.1f%% %8.1f%% %5.1f%%\n",
			row.Benchmark, row.BoundPct, row.MeasuredPct,
			row.GapPct, row.ExposedCopyPct, row.IdlePct)
	}
	if len(rows) == 0 {
		b.WriteString("(no async-streams organizations in this sweep)\n")
	} else {
		fmt.Fprintf(&b, "geomean measured: %.1f%% of copy run time (Rco bound %.1f%%); gap over bound: %+.1f%%\n",
			sum.GeomeanMeasuredPct, sum.GeomeanBoundPct, sum.GeomeanGapPct)
	}
	b.WriteString(fn.String())
	return b.String()
}

// Fig10Text renders Figure 10 from a sweep.
func Fig10Text(r *Results) string {
	rows, sum := Fig10Rows(r)
	return RenderFig10(rows, sum, r.Footnotes())
}

// RenderFig9 formats the off-chip access classification from its rows.
func RenderFig9(rows []Fig9Row, sum Fig9Summary, fn Footnotes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 9. Off-chip accesses by cause (%% of version's accesses; * = bandwidth-limited)\n")
	fmt.Fprintf(&b, "%-24s %-8s %9s %9s %8s %8s %8s %8s\n",
		"benchmark", "version", "compuls", "longrng", "W-Rspill", "R-Rspill", "W-Rcont", "R-Rcont")
	last := ""
	for _, row := range rows {
		label := row.Benchmark
		if label == last {
			label = ""
		}
		last = row.Benchmark
		mark := " "
		if row.BWLimited {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-24s %-8s%s", label, row.Version, mark)
		for i, cs := range row.Classes {
			if i < 2 {
				fmt.Fprintf(&b, " %8.1f%%", cs.Pct)
			} else {
				fmt.Fprintf(&b, " %7.1f%%", cs.Pct)
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "mean R-R contention share (limited-copy): %.1f%%   mean spill share: %.1f%%\n",
		sum.MeanRRContentionPct, sum.MeanSpillPct)
	b.WriteString(fn.String())
	return b.String()
}

// Fig9Text renders Figure 9 from a sweep.
func Fig9Text(r *Results) string {
	rows, sum := Fig9Rows(r)
	return RenderFig9(rows, sum, r.Footnotes())
}
