package experiments

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
)

// This file is the compute half of every figure: each FigNRows function
// reduces a sweep's reports to typed rows plus a summary, and the text,
// CSV, and JSON renderers all format the same rows. Rows carry both the
// raw measurements (bytes, access counts, milliseconds) and the derived
// percentages the paper's figures plot, so no renderer re-derives numbers.

// fig3Bench is the benchmark of the Figure 3 case study.
const fig3Bench = "rodinia/kmeans"

// Fig3Row is one kmeans organization of Figure 3.
type Fig3Row struct {
	Org       string  `json:"org"`
	Estimated bool    `json:"estimated"`
	RunTime   float64 `json:"run_time"` // normalized to baseline
	GPUUtil   float64 `json:"gpu_util"`
}

// Fig3Rows computes the kmeans case study from the sweep's kmeans runs:
// run times normalized to Baseline (copy) of Asynchronous Copy (streams),
// No Memory Copy (limited), Parallel (Eq. 1 estimate on the no-copy run,
// starred), and Parallel + Cache (chunked producer-consumer). A failed
// organization has no row; the kmeans failures come back in slot order.
// Without a Baseline there are no rows.
func Fig3Rows(r *Results) ([]Fig3Row, []harness.RunError) {
	var errs []harness.RunError
	for _, e := range r.Failed {
		if e.Benchmark == fig3Bench {
			errs = append(errs, e)
		}
	}
	base := r.Copy[fig3Bench]
	if base == nil {
		return nil, errs
	}
	norm := func(rep *core.Report) float64 { return float64(rep.ROI) / float64(base.ROI) }
	rows := []Fig3Row{{"Baseline", false, 1.0, base.GPUUtil}}
	if async := r.Extra[bench.ModeAsyncStreams][fig3Bench]; async != nil {
		rows = append(rows, Fig3Row{"Asynchronous Copy", false, norm(async), async.GPUUtil})
	}
	if nocopy := r.Limited[fig3Bench]; nocopy != nil {
		rows = append(rows, Fig3Row{"No Memory Copy", false, norm(nocopy), nocopy.GPUUtil})
		// "Parallel" is the paper's analytical estimate: overlapped CPU and
		// GPU on the no-copy organization.
		parEst := float64(nocopy.Rco) / float64(base.ROI)
		parUtil := nocopy.GPUUtil * float64(nocopy.ROI) / float64(nocopy.Rco)
		if parUtil > 1 {
			parUtil = 1
		}
		rows = append(rows, Fig3Row{"Parallel", true, parEst, parUtil})
	}
	if parcache := r.Extra[bench.ModeParallelChunked][fig3Bench]; parcache != nil {
		rows = append(rows, Fig3Row{"Parallel + Cache", false, norm(parcache), parcache.GPUUtil})
	}
	return rows, errs
}

// SetPart is one exclusive component subset's share of a footprint.
type SetPart struct {
	Set   string  `json:"set"`
	Bytes uint64  `json:"bytes"`
	Pct   float64 `json:"pct"` // of the copy-version total
}

// Fig4Row is one (benchmark, version) bar of the footprint partition
// figure. Percentages are normalized to the copy version's total.
type Fig4Row struct {
	Benchmark  string    `json:"benchmark"`
	Version    string    `json:"version"`
	TotalBytes uint64    `json:"total_bytes"`
	TotalPct   float64   `json:"total_pct"`
	Sets       []SetPart `json:"sets"`
}

// Fig4Summary aggregates Figure 4.
type Fig4Summary struct {
	// GeomeanLimitedPct is the limited-copy footprint as a percentage of
	// the copy footprint (geomean over benchmarks).
	GeomeanLimitedPct float64 `json:"geomean_limited_footprint_pct"`
}

// Fig4Rows computes the footprint partition rows, copy and limited-copy
// per benchmark in Names() order.
func Fig4Rows(r *Results) ([]Fig4Row, Fig4Summary) {
	var rows []Fig4Row
	var reds []float64
	for _, name := range r.Names() {
		cv, lv := r.Copy[name], r.Limited[name]
		denom := float64(cv.FootprintBytes)
		mk := func(rep *core.Report, version string) Fig4Row {
			row := Fig4Row{
				Benchmark:  name,
				Version:    version,
				TotalBytes: rep.FootprintBytes,
				TotalPct:   pct(float64(rep.FootprintBytes), denom),
			}
			for _, set := range stats.AllComponentSets() {
				row.Sets = append(row.Sets, SetPart{
					Set:   set.String(),
					Bytes: rep.Footprint[set],
					Pct:   pct(float64(rep.Footprint[set]), denom),
				})
			}
			return row
		}
		rows = append(rows, mk(cv, "copy"), mk(lv, "limited"))
		reds = append(reds, float64(lv.FootprintBytes)/float64(cv.FootprintBytes))
	}
	return rows, Fig4Summary{GeomeanLimitedPct: 100 * geomean(reds)}
}

// Fig5Row is one (benchmark, version) row of off-chip accesses by
// component. Percentages are normalized to the copy version's total.
type Fig5Row struct {
	Benchmark string  `json:"benchmark"`
	Version   string  `json:"version"`
	CPU       uint64  `json:"cpu_accesses"`
	GPU       uint64  `json:"gpu_accesses"`
	Copy      uint64  `json:"copy_accesses"`
	CPUPct    float64 `json:"cpu_pct"`
	GPUPct    float64 `json:"gpu_pct"`
	CopyPct   float64 `json:"copy_pct"`
	TotalPct  float64 `json:"total_pct"`
}

// Fig5Summary aggregates Figure 5.
type Fig5Summary struct {
	GeomeanCopySharePct    float64 `json:"geomean_copy_share_pct"`
	GeomeanLimitedTotalPct float64 `json:"geomean_limited_total_pct"`
}

// Fig5Rows computes the off-chip access rows, copy and limited-copy per
// benchmark in Names() order.
func Fig5Rows(r *Results) ([]Fig5Row, Fig5Summary) {
	var rows []Fig5Row
	var copyShares, totalReds []float64
	for _, name := range r.Names() {
		cv, lv := r.Copy[name], r.Limited[name]
		denom := float64(cv.TotalDRAM())
		mk := func(rep *core.Report, version string) Fig5Row {
			return Fig5Row{
				Benchmark: name,
				Version:   version,
				CPU:       rep.DRAMAccesses[stats.CPU],
				GPU:       rep.DRAMAccesses[stats.GPU],
				Copy:      rep.DRAMAccesses[stats.Copy],
				CPUPct:    pct(float64(rep.DRAMAccesses[stats.CPU]), denom),
				GPUPct:    pct(float64(rep.DRAMAccesses[stats.GPU]), denom),
				CopyPct:   pct(float64(rep.DRAMAccesses[stats.Copy]), denom),
				TotalPct:  pct(float64(rep.TotalDRAM()), denom),
			}
		}
		rows = append(rows, mk(cv, "copy"), mk(lv, "limited"))
		copyShares = append(copyShares, float64(cv.DRAMAccesses[stats.Copy])/denom)
		totalReds = append(totalReds, float64(lv.TotalDRAM())/denom)
	}
	return rows, Fig5Summary{
		GeomeanCopySharePct:    100 * geomean(copyShares),
		GeomeanLimitedTotalPct: 100 * geomean(totalReds),
	}
}

// Fig6Row is one (benchmark, version) row of the run-time activity
// breakdown. Percentages are normalized to the copy version's run time;
// raw times and utilizations ride along for the CSV/JSON renderers.
type Fig6Row struct {
	Benchmark  string  `json:"benchmark"`
	Version    string  `json:"version"`
	ROIms      float64 `json:"roi_ms"`
	CPUms      float64 `json:"cpu_active_ms"`
	GPUms      float64 `json:"gpu_active_ms"`
	Copyms     float64 `json:"copy_active_ms"`
	CPUUtil    float64 `json:"cpu_util"`
	GPUUtil    float64 `json:"gpu_util"`
	OppCost    float64 `json:"flop_opp_cost"`
	TotalPct   float64 `json:"total_pct"`
	CopyActPct float64 `json:"copy_active_pct"`
	CPUActPct  float64 `json:"cpu_active_pct"`
	GPUActPct  float64 `json:"gpu_active_pct"`
	OverlapPct float64 `json:"overlap_pct"`
	IdlePct    float64 `json:"idle_pct"`
}

// Fig6Summary aggregates Figure 6.
type Fig6Summary struct {
	// GeomeanLimitedRunPct is the limited-copy run time as a percentage of
	// the copy run time (geomean); ImprovementPct is its complement.
	GeomeanLimitedRunPct float64 `json:"geomean_limited_run_pct"`
	ImprovementPct       float64 `json:"improvement_pct"`
}

// Fig6Rows computes the run-time activity rows, copy and limited-copy per
// benchmark in Names() order.
func Fig6Rows(r *Results) ([]Fig6Row, Fig6Summary) {
	var rows []Fig6Row
	var runReds []float64
	for _, name := range r.Names() {
		cv, lv := r.Copy[name], r.Limited[name]
		denom := float64(cv.ROI)
		mk := func(rep *core.Report, version string) Fig6Row {
			overlap := float64(rep.Breakdown.Total()) - float64(rep.Breakdown.Idle()) -
				float64(rep.Breakdown.Exclusive(stats.CPU)) - float64(rep.Breakdown.Exclusive(stats.GPU)) - float64(rep.Breakdown.Exclusive(stats.Copy))
			return Fig6Row{
				Benchmark:  name,
				Version:    version,
				ROIms:      rep.ROI.Millis(),
				CPUms:      rep.CPUActive.Millis(),
				GPUms:      rep.GPUActive.Millis(),
				Copyms:     rep.CopyActive.Millis(),
				CPUUtil:    rep.CPUUtil,
				GPUUtil:    rep.GPUUtil,
				OppCost:    rep.OppCost,
				TotalPct:   pct(float64(rep.ROI), denom),
				CopyActPct: pct(float64(rep.Breakdown.Exclusive(stats.Copy)), denom),
				CPUActPct:  pct(float64(rep.Breakdown.Exclusive(stats.CPU)), denom),
				GPUActPct:  pct(float64(rep.Breakdown.Exclusive(stats.GPU)), denom),
				OverlapPct: pct(overlap, denom),
				IdlePct:    pct(float64(rep.Breakdown.Idle()), denom),
			}
		}
		rows = append(rows, mk(cv, "copy"), mk(lv, "limited"))
		runReds = append(runReds, float64(lv.ROI)/float64(cv.ROI))
	}
	g := geomean(runReds)
	return rows, Fig6Summary{GeomeanLimitedRunPct: 100 * g, ImprovementPct: 100 * (1 - g)}
}

// Fig78Row is one (benchmark, version) row of the analytical-model
// estimates behind Figures 7 and 8: raw model outputs in milliseconds,
// percentages vs the copy version's run time (the figures'
// normalization), and gains vs the row's own run time.
type Fig78Row struct {
	Benchmark  string  `json:"benchmark"`
	Version    string  `json:"version"`
	ROIms      float64 `json:"roi_ms"`
	RcoMs      float64 `json:"rco_ms"`
	RmcMs      float64 `json:"rmc_ms"`
	CserialMs  float64 `json:"cserial_ms"`
	RcoPct     float64 `json:"rco_pct"`      // Rco vs copy-version ROI
	RmcPct     float64 `json:"rmc_pct"`      // Rmc vs copy-version ROI
	RcoGainPct float64 `json:"rco_gain_pct"` // 100 - Rco vs own ROI
	RmcGainPct float64 `json:"rmc_gain_pct"` // 100 - Rmc vs own ROI
}

// Fig7Validation is one measured-restructuring check of the Eq. 1
// estimates (Section V-A): the simulated restructured organization against
// the model's prediction from the unrestructured run.
type Fig7Validation struct {
	Benchmark  string  `json:"benchmark"`
	Mode       string  `json:"mode"`
	Against    string  `json:"against"` // which estimate: copy-Rco or limited-Rco
	MeasuredMs float64 `json:"measured_ms"`
	EstimateMs float64 `json:"estimate_ms"`
	DeltaPct   float64 `json:"delta_pct"`
}

// Fig7Summary aggregates Figure 7.
type Fig7Summary struct {
	GeomeanOverlapGainPct float64          `json:"geomean_overlap_gain_pct"`
	Validations           []Fig7Validation `json:"validations"`
}

// Fig8Summary aggregates Figure 8.
type Fig8Summary struct {
	GeomeanMigrateGainPct float64 `json:"geomean_migrate_gain_pct"`
}

// Fig78Rows computes the model-estimate rows shared by Figures 7 and 8,
// copy and limited-copy per benchmark in Names() order, plus both
// summaries.
func Fig78Rows(r *Results) ([]Fig78Row, Fig7Summary, Fig8Summary) {
	var rows []Fig78Row
	var overlapGains, migrateGains []float64
	for _, name := range r.Names() {
		cv, lv := r.Copy[name], r.Limited[name]
		denom := float64(cv.ROI)
		mk := func(rep *core.Report, version string) Fig78Row {
			return Fig78Row{
				Benchmark:  name,
				Version:    version,
				ROIms:      rep.ROI.Millis(),
				RcoMs:      rep.Rco.Millis(),
				RmcMs:      rep.Rmc.Millis(),
				CserialMs:  rep.Cserial.Millis(),
				RcoPct:     pct(float64(rep.Rco), denom),
				RmcPct:     pct(float64(rep.Rmc), denom),
				RcoGainPct: 100 - pct(float64(rep.Rco), float64(rep.ROI)),
				RmcGainPct: 100 - pct(float64(rep.Rmc), float64(rep.ROI)),
			}
		}
		rows = append(rows, mk(cv, "copy"), mk(lv, "limited"))
		overlapGains = append(overlapGains, float64(cv.Rco)/float64(cv.ROI))
		migrateGains = append(migrateGains, float64(lv.Rmc)/float64(lv.ROI))
	}
	f7 := Fig7Summary{
		GeomeanOverlapGainPct: 100 * (1 - geomean(overlapGains)),
		Validations:           fig7Validations(r),
	}
	f8 := Fig8Summary{GeomeanMigrateGainPct: 100 * (1 - geomean(migrateGains))}
	return rows, f7, f8
}

// fig7Validations compares the measured restructured implementations
// against the Eq. 1 estimates for the case-study benchmarks.
func fig7Validations(r *Results) []Fig7Validation {
	var vals []Fig7Validation
	for _, name := range []string{"rodinia/backprop", "rodinia/kmeans", "rodinia/streamcluster"} {
		if as, ok := r.Extra[bench.ModeAsyncStreams][name]; ok {
			if cv, ok := r.Copy[name]; ok && cv.Rco > 0 {
				est := cv.Rco
				vals = append(vals, Fig7Validation{
					Benchmark:  name,
					Mode:       bench.ModeAsyncStreams.String(),
					Against:    "copy-Rco",
					MeasuredMs: as.ROI.Millis(),
					EstimateMs: est.Millis(),
					DeltaPct:   100 * (float64(as.ROI) - float64(est)) / float64(est),
				})
			}
		}
		if pc, ok := r.Extra[bench.ModeParallelChunked][name]; ok {
			if lv, ok := r.Limited[name]; ok && lv.Rco > 0 {
				est := lv.Rco
				vals = append(vals, Fig7Validation{
					Benchmark:  name,
					Mode:       bench.ModeParallelChunked.String(),
					Against:    "limited-Rco",
					MeasuredMs: pc.ROI.Millis(),
					EstimateMs: est.Millis(),
					DeltaPct:   100 * (float64(pc.ROI) - float64(est)) / float64(est),
				})
			}
		}
	}
	return vals
}

// Fig10Row is one async-streams organization's measured run time against
// the Eq. 1 Rco bound computed from its copy-mode baseline. The
// organization runs the baseline's kernels and copies verbatim, so Rco —
// perfect copy/compute overlap of that same work — is a true floor on
// the measured time. ExposedCopyPct and IdlePct attribute the measured
// run's gap over the bound: copy time the organization failed to hide,
// and time no component was busy (fence latency, launch serialization,
// host feedback stalls). Parallel-chunked organizations are deliberately
// absent: they migrate compute to the CPU, shrinking Eq. 1's G term, so
// the baseline's Rco does not bound them (Figure 7's validation section
// reports that comparison instead).
type Fig10Row struct {
	Benchmark      string  `json:"benchmark"`
	Mode           string  `json:"mode"`
	BaselineMs     float64 `json:"baseline_ms"`
	BoundMs        float64 `json:"bound_ms"`
	MeasuredMs     float64 `json:"measured_ms"`
	BoundPct       float64 `json:"bound_pct"`        // Rco vs baseline ROI
	MeasuredPct    float64 `json:"measured_pct"`     // measured ROI vs baseline ROI
	GapPct         float64 `json:"gap_pct"`          // measured over the bound
	ExposedCopyPct float64 `json:"exposed_copy_pct"` // of measured ROI
	IdlePct        float64 `json:"idle_pct"`         // of measured ROI
}

// Fig10Summary aggregates Figure 10.
type Fig10Summary struct {
	GeomeanMeasuredPct float64 `json:"geomean_measured_pct"`
	GeomeanBoundPct    float64 `json:"geomean_bound_pct"`
	GeomeanGapPct      float64 `json:"geomean_gap_pct"`
}

// Fig10Rows computes the measured-overlap rows: every async-streams
// organization the sweep ran, in Names() order, against its copy run's
// Rco. Rows with a missing baseline, a zero bound, or a zero measured
// ROI (the residue of failed runs) are dropped rather than rendered as
// NaN.
func Fig10Rows(r *Results) ([]Fig10Row, Fig10Summary) {
	var rows []Fig10Row
	var meas, bounds, gaps []float64
	for _, name := range r.Names() {
		rep, base := r.Extra[bench.ModeAsyncStreams][name], r.Copy[name]
		if rep == nil || base == nil || rep.ROI <= 0 || base.ROI <= 0 || base.Rco <= 0 {
			continue
		}
		denom := float64(base.ROI)
		rows = append(rows, Fig10Row{
			Benchmark: name, Mode: bench.ModeAsyncStreams.String(),
			BaselineMs:     base.ROI.Millis(),
			BoundMs:        base.Rco.Millis(),
			MeasuredMs:     rep.ROI.Millis(),
			BoundPct:       pct(float64(base.Rco), denom),
			MeasuredPct:    pct(float64(rep.ROI), denom),
			GapPct:         pct(float64(rep.ROI)-float64(base.Rco), float64(base.Rco)),
			ExposedCopyPct: pct(float64(rep.Breakdown.Exclusive(stats.Copy)), float64(rep.ROI)),
			IdlePct:        pct(float64(rep.Breakdown.Idle()), float64(rep.ROI)),
		})
		meas = append(meas, float64(rep.ROI)/denom)
		bounds = append(bounds, float64(base.Rco)/denom)
		gaps = append(gaps, float64(rep.ROI)/float64(base.Rco))
	}
	var sum Fig10Summary
	if len(gaps) > 0 {
		sum.GeomeanMeasuredPct = 100 * geomean(meas)
		sum.GeomeanBoundPct = 100 * geomean(bounds)
		sum.GeomeanGapPct = 100 * (geomean(gaps) - 1)
	}
	return rows, sum
}

// ClassShare is one off-chip access class's share of a run's classified
// accesses.
type ClassShare struct {
	Class string  `json:"class"`
	Count uint64  `json:"count"`
	Pct   float64 `json:"pct"`
}

// Fig9Row is one (benchmark, version) row of the off-chip access
// classification, classes in core.Class order.
type Fig9Row struct {
	Benchmark string       `json:"benchmark"`
	Version   string       `json:"version"`
	BWLimited bool         `json:"bw_limited"`
	Classes   []ClassShare `json:"classes"`
}

// Fig9Summary aggregates Figure 9 over the limited-copy versions.
type Fig9Summary struct {
	MeanRRContentionPct float64 `json:"mean_rr_contention_pct"`
	MeanSpillPct        float64 `json:"mean_spill_pct"`
}

// Fig9Rows computes the access-classification rows, copy and limited-copy
// per benchmark in Names() order.
func Fig9Rows(r *Results) ([]Fig9Row, Fig9Summary) {
	var rows []Fig9Row
	var rrConts, spills []float64
	for _, name := range r.Names() {
		mk := func(rep *core.Report, version string) Fig9Row {
			row := Fig9Row{
				Benchmark: name,
				Version:   version,
				BWLimited: rep.BWLimitedFrac > 0.25,
			}
			for c := core.Class(0); c < core.NumClasses; c++ {
				row.Classes = append(row.Classes, ClassShare{
					Class: c.String(),
					Count: rep.ClassCounts[c],
					Pct:   100 * rep.ClassFraction(c),
				})
			}
			return row
		}
		lv := r.Limited[name]
		rows = append(rows, mk(r.Copy[name], "copy"), mk(lv, "limited"))
		rrConts = append(rrConts, lv.ClassFraction(core.ClassRRContention))
		spills = append(spills, lv.ClassFraction(core.ClassWRSpill)+lv.ClassFraction(core.ClassRRSpill))
	}
	var sum Fig9Summary
	if len(rrConts) > 0 {
		var rrMean, spillMean float64
		for i := range rrConts {
			rrMean += rrConts[i]
			spillMean += spills[i]
		}
		rrMean /= float64(len(rrConts))
		spillMean /= float64(len(spills))
		sum.MeanRRContentionPct = 100 * rrMean
		sum.MeanSpillPct = 100 * spillMean
	}
	return rows, sum
}
