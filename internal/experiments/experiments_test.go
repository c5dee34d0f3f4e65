package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

func TestTable1Renders(t *testing.T) {
	txt := Table1()
	for _, want := range []string{"CPU cores", "GDDR5", "PCI Express", "Heterogeneous"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, txt)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	txt := Table2Text()
	for _, want := range []string{"lonestar", "pannotia", "parboil", "rodinia", "58", "88%"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, txt)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	// Non-positive values are clamped, not fatal.
	if g := geomean([]float64{0, 1}); g <= 0 {
		t.Fatalf("clamped geomean = %v", g)
	}
	// Non-finite entries — the residue of failed runs — are skipped.
	if g := geomean([]float64{1, math.NaN(), 4, math.Inf(1)}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean with non-finite entries = %v", g)
	}
	if g := geomean([]float64{math.NaN()}); g != 0 {
		t.Fatalf("all-NaN geomean = %v", g)
	}
	if p := pct(1, 0); p != 0 {
		t.Fatalf("pct with zero denominator = %v", p)
	}
	if p := pct(1, math.NaN()); p != 0 {
		t.Fatalf("pct with NaN denominator = %v", p)
	}
}

// kmeansSweep is the serial sweep of the Figure 3 benchmark the Fig 3
// tests share, run once.
var kmeansSweep = sync.OnceValue(func() *Results {
	r, _ := RunSweep(bench.SizeSmall, SweepOpts{Only: []string{"rodinia/kmeans"}, Jobs: 1})
	return r
})

// TestFig3Ordering pins the paper's headline case-study result: the five
// kmeans organizations must improve monotonically (the Parallel estimate
// may only beat the simulated Parallel+Cache by the caching effect).
func TestFig3Ordering(t *testing.T) {
	rows, errs := Fig3Rows(kmeansSweep())
	if len(errs) != 0 {
		t.Fatalf("unexpected failures: %v", errs)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].RunTime != 1.0 {
		t.Fatal("baseline must be 1.0")
	}
	// Async beats baseline; no-copy beats async; parallel+cache beats
	// no-copy.
	if !(rows[1].RunTime < rows[0].RunTime) {
		t.Fatalf("async-streams (%v) must beat baseline", rows[1].RunTime)
	}
	if !(rows[2].RunTime < rows[1].RunTime) {
		t.Fatalf("no-copy (%v) must beat async (%v)", rows[2].RunTime, rows[1].RunTime)
	}
	if !(rows[4].RunTime < rows[2].RunTime) {
		t.Fatalf("parallel+cache (%v) must beat no-copy (%v)", rows[4].RunTime, rows[2].RunTime)
	}
	// GPU utilization climbs from baseline to the final organization
	// (paper: 18% -> 80%).
	if !(rows[4].GPUUtil > rows[0].GPUUtil*2) {
		t.Fatalf("GPU util did not climb: %v -> %v", rows[0].GPUUtil, rows[4].GPUUtil)
	}
	if !rows[3].Estimated || rows[0].Estimated {
		t.Fatal("estimated flags wrong")
	}
	if !strings.Contains(RenderFig3(rows, errs), "Parallel + Cache") {
		t.Fatal("fig 3 text malformed")
	}
}

// TestFig3ParallelMatchesSerial checks -exp fig3 honours -par: the rows
// from a sweep at Parallel 2 equal the serial rows, and the parallel
// engine really ran.
func TestFig3ParallelMatchesSerial(t *testing.T) {
	serial, errs := Fig3Rows(kmeansSweep())
	if len(errs) != 0 {
		t.Fatalf("serial failures: %v", errs)
	}
	windows := func() float64 { return metrics.Default.Snapshot()["sim_engine_windows_total"] }
	before := windows()
	res, _ := RunSweep(bench.SizeSmall, SweepOpts{Only: []string{"rodinia/kmeans"}, Jobs: 1, Parallel: 2})
	par, errs := Fig3Rows(res)
	if len(errs) != 0 {
		t.Fatalf("parallel failures: %v", errs)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("rows at Parallel 2 differ from serial:\n%+v\n%+v", par, serial)
	}
	if windows() == before {
		t.Fatal("Fig3 at Parallel 2 never ran the parallel engine")
	}
}

// TestFig3RowsWithoutKmeans: a sweep that left kmeans out has no Figure
// 3 rows and no footnotes, and says so in one line instead of claiming
// the baseline failed. A failed kmeans baseline is footnoted.
func TestFig3RowsWithoutKmeans(t *testing.T) {
	rows, errs := Fig3Rows(fakeResults())
	if len(rows) != 0 || len(errs) != 0 {
		t.Fatalf("sweep without kmeans: rows %+v errs %v", rows, errs)
	}
	txt := Fig3Text(fakeResults())
	if !strings.Contains(txt, "no rodinia/kmeans baseline run in this sweep") || strings.Contains(txt, "baseline failed") {
		t.Fatalf("fig 3 without kmeans:\n%s", txt)
	}
	if n := strings.Count(txt, "\n"); n != 2 {
		t.Fatalf("fig 3 without kmeans has %d lines, want header and one note:\n%s", n, txt)
	}

	failed := fakeResults()
	failed.Failed = []harness.RunError{
		{Benchmark: "x/y", Mode: bench.ModeCopy, Kind: harness.KindPanic, Msg: "other benchmark"},
		{Benchmark: fig3Bench, Mode: bench.ModeCopy, Kind: harness.KindPanic, Msg: "boom"},
	}
	rows, errs = Fig3Rows(failed)
	if len(rows) != 0 || len(errs) != 1 || errs[0].Msg != "boom" {
		t.Fatalf("failed kmeans baseline: rows %+v errs %v", rows, errs)
	}
	txt = Fig3Text(failed)
	if !strings.Contains(txt, "baseline failed") || !strings.Contains(txt, "† rodinia/kmeans (copy) failed") ||
		strings.Contains(txt, "other benchmark") {
		t.Fatalf("fig 3 with a failed baseline:\n%s", txt)
	}
}

// fakeResults builds a tiny synthetic Results so the figure renderers can
// be tested without a full sweep.
func fakeResults() *Results {
	mk := func(roi sim.Tick, copyAcc, gpuAcc uint64) *core.Report {
		r := &core.Report{ROI: roi, FootprintBytes: 1024}
		r.Footprint = map[stats.ComponentSet]uint64{
			stats.ComponentSet(0).Set(stats.GPU): 1024,
		}
		r.DRAMAccesses[stats.Copy] = copyAcc
		r.DRAMAccesses[stats.GPU] = gpuAcc
		r.Breakdown = stats.Breakdown{Start: 0, End: roi, BySet: map[stats.ComponentSet]sim.Tick{}}
		r.Rco = roi / 2
		r.Rmc = roi / 4
		r.ClassCounts[core.ClassCompulsory] = gpuAcc
		return r
	}
	return &Results{
		Copy:    map[string]*core.Report{"x/y": mk(1000, 50, 100)},
		Limited: map[string]*core.Report{"x/y": mk(800, 0, 100)},
		Extra: map[bench.Mode]map[string]*core.Report{
			// The async run sits between the copy run's Rco (500) and its
			// ROI (1000), as a real overlapped organization must.
			bench.ModeAsyncStreams:    {"x/y": mk(600, 10, 100)},
			bench.ModeParallelChunked: {},
		},
	}
}

func TestFigureRenderersOnFakeData(t *testing.T) {
	r := fakeResults()
	for name, txt := range map[string]string{
		"fig4":  Fig4Text(r),
		"fig5":  Fig5Text(r),
		"fig6":  Fig6Text(r),
		"fig7":  Fig7Text(r),
		"fig8":  Fig8Text(r),
		"fig9":  Fig9Text(r),
		"fig10": Fig10Text(r),
	} {
		if !strings.Contains(txt, "x/y") {
			t.Fatalf("%s missing benchmark row:\n%s", name, txt)
		}
		if strings.Contains(txt, "NaN") || strings.Contains(txt, "%!") {
			t.Fatalf("%s has formatting garbage:\n%s", name, txt)
		}
	}
}

// TestFig10Guards pins the new figure's degenerate cases: a zero-ROI
// async report (the residue of a failed run) and a missing baseline are
// dropped rather than rendered, a sweep with no async organizations
// renders an explicit placeholder, and nothing ever formats as NaN.
func TestFig10Guards(t *testing.T) {
	r := fakeResults()
	r.Extra[bench.ModeAsyncStreams]["x/y"].ROI = 0
	rows, _ := Fig10Rows(r)
	if len(rows) != 0 {
		t.Fatalf("zero-ROI async run must be dropped, got %+v", rows)
	}
	if txt := Fig10Text(r); !strings.Contains(txt, "no async-streams organizations") ||
		strings.Contains(txt, "NaN") || strings.Contains(txt, "%!") {
		t.Fatalf("empty fig10 render malformed:\n%s", txt)
	}

	// Async run without its copy baseline (the baseline failed).
	r = fakeResults()
	delete(r.Copy, "x/y")
	r.Limited = map[string]*core.Report{}
	if rows, _ := Fig10Rows(r); len(rows) != 0 {
		t.Fatalf("async run without a baseline must be dropped, got %+v", rows)
	}

	// A sweep that recorded no Extra runs at all (nil map) must not panic.
	r = fakeResults()
	r.Extra = nil
	if rows, _ := Fig10Rows(r); len(rows) != 0 {
		t.Fatalf("nil Extra must yield no rows, got %+v", rows)
	}
}

// TestFig10BoundHolds is the figure's sanity invariant on real runs: an
// async-streams organization executes its baseline's kernels and copies
// verbatim, so its measured time can never beat the Eq. 1 Rco bound
// computed from the copy run.
func TestFig10BoundHolds(t *testing.T) {
	res, errs := RunSweep(bench.SizeSmall, SweepOpts{
		Only: []string{"parboil/sgemm", "pannotia/pr_spmv", "rodinia/hotspot"},
	})
	if len(errs) != 0 {
		t.Fatalf("unexpected failures: %v", errs)
	}
	rows, sum := Fig10Rows(res)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want one per async benchmark: %+v", len(rows), rows)
	}
	for _, row := range rows {
		if row.MeasuredMs < row.BoundMs {
			t.Fatalf("%s: measured %.6fms beats the Rco bound %.6fms",
				row.Benchmark, row.MeasuredMs, row.BoundMs)
		}
		if row.GapPct < 0 {
			t.Fatalf("%s: negative gap %+.2f%%", row.Benchmark, row.GapPct)
		}
	}
	if sum.GeomeanGapPct < 0 {
		t.Fatalf("geomean gap %+.2f%% negative", sum.GeomeanGapPct)
	}
}

// TestAblationsRespond pins the qualitative direction of each ablation.
func TestAblationsRespond(t *testing.T) {
	t.Run("coherence", func(t *testing.T) {
		rows := AblateCoherence(bench.SizeSmall)
		if len(rows) != 2 || rows[0].ROIms >= rows[1].ROIms {
			t.Fatalf("coherence must help the consumer: %+v", rows)
		}
	})
	t.Run("faults", func(t *testing.T) {
		rows := AblateFaultCost(bench.SizeSmall)
		for i := 1; i < len(rows); i++ {
			if rows[i].ROIms < rows[i-1].ROIms {
				t.Fatalf("fault cost must monotonically hurt srad: %+v", rows)
			}
		}
	})
	t.Run("pcie", func(t *testing.T) {
		rows := AblatePCIe(bench.SizeSmall)
		for i := 1; i < len(rows); i++ {
			if rows[i].ROIms > rows[i-1].ROIms {
				t.Fatalf("more PCIe bandwidth must help kmeans: %+v", rows)
			}
		}
	})
	t.Run("l2", func(t *testing.T) {
		rows := AblateGPUL2(bench.SizeSmall)
		first, last := rows[0], rows[len(rows)-1]
		if last.ROIms > first.ROIms {
			t.Fatalf("bigger L2 must not hurt spmv: %+v", rows)
		}
	})
}

// TestSweepSurvivesForcedFailure is the fault-tolerance acceptance test:
// a sweep where one benchmark is rigged to exhaust its budget must still
// complete the other benchmark's runs, report the failures, and render
// every figure with the survivor's rows plus failure footnotes — and no
// NaN anywhere.
func TestSweepSurvivesForcedFailure(t *testing.T) {
	res, errs := RunSweep(bench.SizeSmall, SweepOpts{
		Only: []string{"rodinia/kmeans", "rodinia/srad"},
		PerRun: func(spec *harness.Spec) {
			if spec.Bench.Info().FullName() == "rodinia/kmeans" {
				spec.Budget.MaxEvents = 1 // fails fast on every attempt
			}
		},
	})
	if len(errs) == 0 {
		t.Fatal("rigged sweep must report failures")
	}
	for _, e := range errs {
		if e.Benchmark != "rodinia/kmeans" {
			t.Fatalf("unexpected failure: %v", &e)
		}
	}
	if _, ok := res.Copy["rodinia/srad"]; !ok {
		t.Fatal("srad copy run must survive kmeans failures")
	}
	if _, ok := res.Limited["rodinia/srad"]; !ok {
		t.Fatal("srad limited run must survive kmeans failures")
	}
	if names := res.Names(); len(names) != 1 || names[0] != "rodinia/srad" {
		t.Fatalf("Names() = %v", names)
	}
	for name, txt := range map[string]string{
		"fig4": Fig4Text(res),
		"fig5": Fig5Text(res),
		"fig6": Fig6Text(res),
		"fig7": Fig7Text(res),
		"fig8": Fig8Text(res),
		"fig9": Fig9Text(res),
	} {
		if !strings.Contains(txt, "rodinia/srad") {
			t.Fatalf("%s missing surviving benchmark:\n%s", name, txt)
		}
		if !strings.Contains(txt, "†") || !strings.Contains(txt, "rodinia/kmeans") {
			t.Fatalf("%s missing failure footnote:\n%s", name, txt)
		}
		if strings.Contains(txt, "NaN") || strings.Contains(txt, "%!") {
			t.Fatalf("%s has formatting garbage:\n%s", name, txt)
		}
	}
}

// TestTable2EmptyAndZeroGuards pins the Table II edge cases: an empty
// census renders just the header (no panic), and a zero total renders 0%
// rows instead of NaN.
func TestTable2EmptyAndZeroGuards(t *testing.T) {
	if txt := Table2TextOf(nil); !strings.Contains(txt, "Suite") || strings.Contains(txt, "portion") {
		t.Fatalf("empty census must render header only:\n%s", txt)
	}
	txt := Table2TextOf([]bench.Table2Row{{Suite: "total", Num: 0}})
	if strings.Contains(txt, "NaN") || strings.Contains(txt, "%!") {
		t.Fatalf("zero-total census must not render NaN:\n%s", txt)
	}
	if !strings.Contains(txt, "portion") {
		t.Fatalf("zero-total census must still render the portion row:\n%s", txt)
	}
}

// TestSweepDeterministicAcrossJobs is the concurrency acceptance test: a
// sweep with a rigged failure must produce identical Results — including
// the order of Failed and Notes and every rendered figure — at Jobs 1 and
// Jobs 8. Run under -race this also exercises the pool for data races.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) (*Results, []harness.RunError) {
		return RunSweep(bench.SizeSmall, SweepOpts{
			Only: []string{"rodinia/backprop", "rodinia/kmeans", "rodinia/srad"},
			Jobs: jobs,
			PerRun: func(spec *harness.Spec) {
				if spec.Bench.Info().FullName() == "rodinia/kmeans" {
					spec.Budget.MaxEvents = 1 // fails fast on every attempt
				}
			},
		})
	}
	serial, serialErrs := run(1)
	wide, wideErrs := run(8)

	if len(serialErrs) == 0 {
		t.Fatal("rigged sweep must report failures")
	}
	if len(serialErrs) != len(wideErrs) {
		t.Fatalf("failure count differs: %d vs %d", len(serialErrs), len(wideErrs))
	}
	for i := range serialErrs {
		if serialErrs[i].Error() != wideErrs[i].Error() {
			t.Fatalf("Failed[%d] differs:\n  jobs=1: %v\n  jobs=8: %v",
				i, &serialErrs[i], &wideErrs[i])
		}
	}
	if a, b := strings.Join(serial.Notes, "\n"), strings.Join(wide.Notes, "\n"); a != b {
		t.Fatalf("Notes differ:\n  jobs=1: %s\n  jobs=8: %s", a, b)
	}
	for name, render := range map[string]func(*Results) string{
		"fig4": Fig4Text, "fig5": Fig5Text, "fig6": Fig6Text,
		"fig7": Fig7Text, "fig8": Fig8Text, "fig9": Fig9Text,
		"fig10": Fig10Text,
	} {
		if a, b := render(serial), render(wide); a != b {
			t.Fatalf("%s differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s", name, a, b)
		}
	}
	// Wall-clock durations are the one legitimately nondeterministic field
	// in the export; zero them before comparing.
	zeroWall := func(r *Results) {
		for i := range r.Runs {
			r.Runs[i].Wall = 0
		}
		for i := range r.Failed {
			r.Failed[i].Wall = 0
		}
	}
	zeroWall(serial)
	zeroWall(wide)
	aj, err := json.Marshal(serial.JSON())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(wide.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("JSON export differs between jobs=1 and jobs=8")
	}
}

// TestWriteJSON exercises the sweep's JSON export end to end on fake data.
func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := WriteJSON(path, fakeResults()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc SweepDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.Fig4.Rows) != 2 || doc.Fig4.Rows[0].Benchmark != "x/y" {
		t.Fatalf("fig4 rows = %+v", doc.Fig4.Rows)
	}
	if len(doc.Fig78Rows) != 2 {
		t.Fatalf("fig78 rows = %+v", doc.Fig78Rows)
	}
}

// TestFaultSweep pins the -exp faults acceptance criteria: each injected
// fault slows its victim down (directionally correct) while the Eq. 1 and
// Eqs. 2-4 model outputs stay finite. A second matrix over the same run
// store simulates nothing and renders the same text; a matrix whose
// dispatch is canceled up front renders every run as skipped.
func TestFaultSweep(t *testing.T) {
	dir := t.TempDir()
	starts := map[string]int{}
	opts := SweepOpts{Jobs: 1, Store: openRecords(t, dir), Progress: sweep.NewEventTracker(func(ev sweep.Event) {
		if ev.Kind == "start" {
			starts[ev.Name]++
		}
	})}
	rows := FaultSweep(bench.SizeSmall, opts)
	if len(rows) != len(FaultCases()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(FaultCases()))
	}
	// A nominal run and its injected twin are told apart by the plan.
	if len(starts) != 2*len(FaultCases()) {
		t.Fatalf("fault matrix started %d distinct run names, want %d: %v", len(starts), 2*len(FaultCases()), starts)
	}
	for i := range rows {
		fr := &rows[i]
		for _, out := range []*harness.Outcome{fr.Baseline, fr.Injected} {
			if out == nil || out.Err != nil {
				t.Fatalf("%s: run missing or failed: %+v", fr.Case.Label, out)
			}
		}
		if !fr.ModelsFinite() {
			t.Fatalf("%s: model outputs not finite: base %+v inj %+v",
				fr.Case.Label, fr.Baseline.Report, fr.Injected.Report)
		}
		if s := fr.Slowdown(); s < 1 {
			t.Fatalf("%s: injected fault sped the run up (%.3fx)", fr.Case.Label, s)
		}
	}
	txt := FaultSweepText(rows)
	for _, want := range []string{"pcie-throttle", "slow-fault-handler", "dram-channel-stall", "finite"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("fault sweep text missing %q:\n%s", want, txt)
		}
	}
	if strings.Contains(txt, "BROKEN") || strings.Contains(txt, "NaN") || strings.Contains(txt, "%!") {
		t.Fatalf("fault sweep text malformed:\n%s", txt)
	}

	// Rerun over the same store: every run is served from its record.
	var sims atomic.Int32
	opts.Store = openRecords(t, dir)
	opts.Progress = sweep.NewEventTracker(func(ev sweep.Event) {
		if ev.Kind == "start" {
			sims.Add(1)
		}
	})
	if again := FaultSweepText(FaultSweep(bench.SizeSmall, opts)); again != txt {
		t.Fatalf("fault matrix from the store differs:\n--- simulated\n%s\n--- stored\n%s", txt, again)
	}
	if n := sims.Load(); n != 0 {
		t.Fatalf("fault matrix over a full store simulated %d runs, want 0", n)
	}

	// Canceled before dispatch: every run is skipped, nothing is broken.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	skipped := FaultSweep(bench.SizeSmall, SweepOpts{Jobs: 1, Ctx: ctx})
	for _, fr := range skipped {
		if fr.Baseline != nil || fr.Injected != nil {
			t.Fatalf("%s ran under a canceled context", fr.Case.Label)
		}
	}
	txt = FaultSweepText(skipped)
	if strings.Count(txt, "skipped") != 3*len(FaultCases()) || strings.Contains(txt, "failed") ||
		strings.Contains(txt, "BROKEN") || strings.Contains(txt, "NaN") {
		t.Fatalf("canceled fault matrix must render skipped rows:\n%s", txt)
	}
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSVs(dir, fakeResults()); err != nil {
		t.Fatal(err)
	}
	for f, wantLines := range map[string]int{
		// header + copy + limited for the one benchmark...
		"fig4_footprint.csv":      3,
		"fig5_accesses.csv":       3,
		"fig6_runtime.csv":        3,
		"fig78_models.csv":        3,
		"fig9_classification.csv": 3,
		// ...and header + the one async organization.
		"fig10_overlap.csv": 2,
	} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != wantLines {
			t.Fatalf("%s: %d lines, want %d", f, len(lines), wantLines)
		}
		if !strings.Contains(lines[1], "x/y") {
			t.Fatalf("%s: missing benchmark row", f)
		}
	}
}

// TestSweepTracedWithProgress is the observability acceptance test: a
// rigged sweep run with tracing and progress enabled must (a) render the
// same figure bytes as the untraced run, (b) export a valid trace with
// one process per run, (c) report every run — success and failure alike —
// in the symmetric runs section, and (d) stream progress lines on its own
// writer.
func TestSweepTracedWithProgress(t *testing.T) {
	only := []string{"rodinia/kmeans", "rodinia/srad"}
	rig := func(spec *harness.Spec) {
		if spec.Bench.Info().FullName() == "rodinia/kmeans" {
			spec.Budget.MaxEvents = 1 // fails fast on every attempt
		}
	}
	plain, _ := RunSweep(bench.SizeSmall, SweepOpts{Only: only, PerRun: rig})
	var progress bytes.Buffer
	traced, _ := RunSweep(bench.SizeSmall, SweepOpts{
		Only: only, PerRun: rig,
		Trace:    true,
		Progress: sweep.NewTracker(&progress, 0),
	})

	for name, render := range map[string]func(*Results) string{
		"fig4": Fig4Text, "fig6": Fig6Text, "fig9": Fig9Text,
	} {
		if a, b := render(plain), render(traced); a != b {
			t.Fatalf("%s differs with tracing on:\n--- off\n%s\n--- on\n%s", name, a, b)
		}
	}

	n := len(traced.Runs) // base modes plus kmeans's extra modes
	if n < 4 || len(traced.Traces) != n {
		t.Fatalf("Traces = %d recorders for %d runs", len(traced.Traces), n)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, traced.Traces); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("sweep trace invalid: %v", err)
	}
	if fs.Processes != n || fs.Spans == 0 {
		t.Fatalf("file stats = %+v, want %d processes with spans", fs, n)
	}

	var okRuns, failedRuns int
	for _, m := range traced.Runs {
		if m.Failed {
			failedRuns++
		} else {
			okRuns++
			if m.SimTime <= 0 || m.Events == 0 || len(m.Phases) == 0 {
				t.Fatalf("successful run missing telemetry: %+v", m)
			}
		}
	}
	if okRuns != 2 || failedRuns != n-2 { // srad's two base modes succeed
		t.Fatalf("runs split %d ok / %d failed, want 2/%d", okRuns, failedRuns, n-2)
	}
	doc := traced.JSON()
	if len(doc.Runs) != n {
		t.Fatalf("sweep doc runs section has %d records, want %d", len(doc.Runs), n)
	}

	out := progress.String()
	for _, want := range []string{"start ", "done  ", "FAILED", "sweep complete: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
	// Untraced sweeps must not retain recorders.
	if plain.Traces != nil {
		t.Fatalf("untraced sweep kept %d recorders", len(plain.Traces))
	}
}
