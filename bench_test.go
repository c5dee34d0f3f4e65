// Benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Figures 4-9 share one cached benchmark sweep (the expensive part is the
// simulation, identical for all six figures); Figure 3 re-simulates a
// sweep of its four kmeans organizations on every iteration.
package repro

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/stats"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

var (
	sweepOnce sync.Once
	sweep     *experiments.Results
)

func getSweep() *experiments.Results {
	sweepOnce.Do(func() { sweep, _ = experiments.RunSweep(bench.SizeSmall, experiments.SweepOpts{}) })
	return sweep
}

// BenchmarkSweepSmall measures the worker-pool speedup of the sweep
// pipeline itself: the same four-benchmark sweep serial (jobs=1) and on a
// GOMAXPROCS-wide pool. Every run is an isolated simulation, so the sweep
// scales with cores; on a single-core machine both cases cost the same.
func BenchmarkSweepSmall(b *testing.B) {
	subset := []string{"rodinia/backprop", "rodinia/bfs", "rodinia/kmeans", "rodinia/srad"}
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, errs := experiments.RunSweep(bench.SizeSmall, experiments.SweepOpts{
					Only: subset,
					Jobs: jobs,
				})
				if len(errs) != 0 || len(res.Names()) != len(subset) {
					b.Fatalf("sweep incomplete: %d names, %d failures", len(res.Names()), len(errs))
				}
			}
		})
	}
}

// BenchmarkRunMedium measures one medium kmeans run end to end — the
// intra-run parallel engine's target workload — serial and with the
// run's trace generation and compilation pipelined on one worker beside
// the timing thread (every par >= 2 means that one worker). The speedup
// comes from overlapping functional execution with the timing model, so
// it needs a spare core: with one, par=4 approaches the larger of the
// two sides' costs, while on a single core both cases cost about the
// same (the pipeline degrades to interleaving, never to divergence).
func BenchmarkRunMedium(b *testing.B) {
	km, ok := bench.Get("rodinia/kmeans")
	if !ok {
		b.Fatal("rodinia/kmeans not registered")
	}
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := harness.Run(harness.Spec{
					Bench: km, Mode: bench.ModeCopy, Size: bench.SizeMedium,
					Parallel: par,
				})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates the Table I system parameter listing.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(experiments.Table1(), "GDDR5") {
			b.Fatal("table 1 malformed")
		}
	}
}

// BenchmarkTable2 regenerates the Table II pipeline-construct census.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table2()
		if rows[len(rows)-1].Num != 58 {
			b.Fatal("census must cover 58 benchmarks")
		}
	}
}

// BenchmarkFig3 re-simulates the kmeans case study — the four kmeans runs
// of the sweep, serially — and derives its rows: Baseline, Asynchronous
// Copy, No Memory Copy, Parallel (estimate), Parallel + Cache.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.RunSweep(bench.SizeSmall, experiments.SweepOpts{
			Only: []string{"rodinia/kmeans"},
			Jobs: 1,
		})
		rows, errs := experiments.Fig3Rows(res)
		if len(rows) != 5 || len(errs) != 0 {
			b.Fatal("fig 3 needs 5 organizations")
		}
		b.ReportMetric(rows[2].RunTime, "nocopy-vs-baseline")
		b.ReportMetric(rows[4].RunTime, "parcache-vs-baseline")
		b.ReportMetric(100*rows[4].GPUUtil, "final-gpu-util-%")
	}
}

// BenchmarkFig4 regenerates the footprint partition figure.
func BenchmarkFig4(b *testing.B) {
	r := getSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txt := experiments.Fig4Text(r)
		if !strings.Contains(txt, "geomean") {
			b.Fatal("fig 4 malformed")
		}
	}
	var tot, lim float64
	for _, n := range r.Names() {
		tot += float64(r.Copy[n].FootprintBytes)
		lim += float64(r.Limited[n].FootprintBytes)
	}
	b.ReportMetric(100*lim/tot, "limited-footprint-%")
}

// BenchmarkFig5 regenerates the off-chip access breakdown figure.
func BenchmarkFig5(b *testing.B) {
	r := getSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5Text(r)
	}
	var copyAcc, totAcc uint64
	for _, n := range r.Names() {
		copyAcc += r.Copy[n].DRAMAccesses[stats.Copy]
		totAcc += r.Copy[n].TotalDRAM()
	}
	b.ReportMetric(100*float64(copyAcc)/float64(totAcc), "copy-access-%")
}

// BenchmarkFig6 regenerates the run-time activity breakdown figure.
func BenchmarkFig6(b *testing.B) {
	r := getSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6Text(r)
	}
	var cv, lv float64
	for _, n := range r.Names() {
		cv += r.Copy[n].ROI.Millis()
		lv += r.Limited[n].ROI.Millis()
	}
	b.ReportMetric(100*(1-lv/cv), "runtime-improvement-%")
}

// BenchmarkFig7 regenerates the component-overlap (Eq. 1) estimate figure.
func BenchmarkFig7(b *testing.B) {
	r := getSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7Text(r)
	}
	var est, act float64
	for _, n := range r.Names() {
		est += r.Copy[n].Rco.Millis()
		act += r.Copy[n].ROI.Millis()
	}
	b.ReportMetric(100*(1-est/act), "overlap-gain-%")
}

// BenchmarkFig8 regenerates the migrated-compute (Eqs. 2-4) estimate figure.
func BenchmarkFig8(b *testing.B) {
	r := getSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig8Text(r)
	}
	var est, act float64
	for _, n := range r.Names() {
		est += r.Limited[n].Rmc.Millis()
		act += r.Limited[n].ROI.Millis()
	}
	b.ReportMetric(100*(1-est/act), "migrate-gain-%")
}

// BenchmarkFig9 regenerates the off-chip access classification figure.
func BenchmarkFig9(b *testing.B) {
	r := getSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig9Text(r)
	}
	var rr float64
	for _, n := range r.Names() {
		rr += r.Limited[n].ClassFraction(core.ClassRRContention)
	}
	b.ReportMetric(100*rr/float64(len(r.Names())), "rr-contention-%")
}
