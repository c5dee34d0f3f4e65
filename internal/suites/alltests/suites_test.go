// Package alltests runs every registered benchmark end to end in the two
// baseline modes and sanity-checks the analysis reports.
package alltests

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stats"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

func TestRegistryHas20Benchmarks(t *testing.T) {
	if got := len(bench.All()); got != 46 {
		t.Fatalf("registered benchmarks = %d, want 46", got)
	}
	// Registry must agree with the census Implemented flags.
	impl := map[string]bool{}
	for _, e := range bench.Census() {
		if e.Implemented {
			impl[e.Suite+"/"+e.Name] = true
		}
	}
	for _, b := range bench.All() {
		if !impl[b.Info().FullName()] {
			t.Errorf("%s registered but not marked Implemented in census", b.Info().FullName())
		}
		delete(impl, b.Info().FullName())
	}
	for name := range impl {
		t.Errorf("%s marked Implemented but not registered", name)
	}
}

func TestAllBenchmarksBothBaselineModes(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Info().FullName(), func(t *testing.T) {
			t.Parallel()
			repCopy, digCopy := bench.ExecuteWithResult(b, bench.ModeCopy, bench.SizeSmall)
			repLim, digLim := bench.ExecuteWithResult(b, bench.ModeLimitedCopy, bench.SizeSmall)

			// The port never changes the computation: functional digests
			// must match exactly between the two machines.
			if len(digCopy) == 0 {
				t.Error("benchmark publishes no result digest")
			}
			if len(digCopy) != len(digLim) {
				t.Fatalf("digest shapes differ: %d vs %d", len(digCopy), len(digLim))
			}
			for i := range digCopy {
				if digCopy[i] != digLim[i] {
					t.Errorf("digest[%d]: copy %v != limited %v", i, digCopy[i], digLim[i])
				}
			}

			if repCopy.ROI <= 0 || repLim.ROI <= 0 {
				t.Fatal("empty ROI")
			}
			if repCopy.GPUActive <= 0 || repLim.GPUActive <= 0 {
				t.Fatal("no GPU activity")
			}
			if repCopy.TotalDRAM() == 0 || repLim.TotalDRAM() == 0 {
				t.Fatal("no off-chip accesses")
			}
			// Copy mode on the discrete system must show copy traffic; the
			// heterogeneous port must show much less (most benchmarks: none).
			if repCopy.DRAMAccesses[stats.Copy] == 0 {
				t.Error("copy mode shows no copy accesses")
			}
			if repLim.DRAMAccesses[stats.Copy] > repCopy.DRAMAccesses[stats.Copy] {
				t.Errorf("limited-copy has more copy accesses (%d) than copy (%d)",
					repLim.DRAMAccesses[stats.Copy], repCopy.DRAMAccesses[stats.Copy])
			}
			// Footprint must shrink or stay equal without mirrored buffers.
			if repLim.FootprintBytes > repCopy.FootprintBytes {
				t.Errorf("limited-copy footprint %d > copy footprint %d",
					repLim.FootprintBytes, repCopy.FootprintBytes)
			}
			// Accounting identities, in both modes: classified accesses
			// conserve, and the footprint partition sums to the footprint.
			for _, r := range []*core.Report{repCopy, repLim} {
				var cls uint64
				for _, v := range r.ClassCounts {
					cls += v
				}
				if cls != r.TotalDRAM() {
					t.Errorf("%s: classified %d != total DRAM %d", r.Mode, cls, r.TotalDRAM())
				}
				var foot uint64
				for _, v := range r.Footprint {
					foot += v
				}
				if foot != r.FootprintBytes {
					t.Errorf("%s: footprint partition sums to %d, footprint is %d", r.Mode, foot, r.FootprintBytes)
				}
			}
			t.Logf("copy: ROI=%.3fms gpu=%.0f%% | limited: ROI=%.3fms gpu=%.0f%% | foot %0.1f->%0.1f MB",
				repCopy.ROI.Millis(), 100*repCopy.GPUUtil, repLim.ROI.Millis(), 100*repLim.GPUUtil,
				float64(repCopy.FootprintBytes)/(1<<20), float64(repLim.FootprintBytes)/(1<<20))
		})
	}
}

func TestExtraModesRun(t *testing.T) {
	for _, b := range bench.All() {
		for _, m := range b.Info().ExtraModes {
			b, m := b, m
			t.Run(b.Info().FullName()+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				rep := bench.Execute(b, m, bench.SizeSmall)
				if rep.ROI <= 0 || rep.GPUActive <= 0 {
					t.Fatalf("%s in %s produced no activity", b.Info().FullName(), m)
				}
			})
		}
	}
}

// TestPaperShapeClaims pins the qualitative results the paper's evaluation
// rests on, so regressions in the models or benchmarks surface here.
func TestPaperShapeClaims(t *testing.T) {
	get := func(name string) bench.Benchmark {
		b, ok := bench.Get(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return b
	}

	t.Run("kmeans-2x-from-copy-removal", func(t *testing.T) {
		t.Parallel()
		cv := bench.Execute(get("rodinia/kmeans"), bench.ModeCopy, bench.SizeSmall)
		lv := bench.Execute(get("rodinia/kmeans"), bench.ModeLimitedCopy, bench.SizeSmall)
		if float64(lv.ROI) > 0.7*float64(cv.ROI) {
			t.Fatalf("kmeans copy removal too weak: %v -> %v", cv.ROI, lv.ROI)
		}
	})

	t.Run("srad-fault-victim", func(t *testing.T) {
		t.Parallel()
		cv := bench.Execute(get("rodinia/srad"), bench.ModeCopy, bench.SizeSmall)
		lv := bench.Execute(get("rodinia/srad"), bench.ModeLimitedCopy, bench.SizeSmall)
		// The paper: srad slows down on the heterogeneous processor because
		// its GPU-temporary writes serialize on the CPU fault handler.
		if lv.ROI <= cv.ROI {
			t.Fatalf("srad must slow down under CPU-handled faults: %v -> %v", cv.ROI, lv.ROI)
		}
	})

	t.Run("spmv-contention-dominates", func(t *testing.T) {
		t.Parallel()
		lv := bench.Execute(get("parboil/spmv"), bench.ModeLimitedCopy, bench.SizeSmall)
		if lv.ClassFraction(core.ClassRRContention) < 0.5 {
			t.Fatalf("spmv R-R contention = %.1f%%, expected dominant",
				100*lv.ClassFraction(core.ClassRRContention))
		}
		if lv.BWLimitedFrac < 0.25 {
			t.Fatalf("spmv should be bandwidth-limited (frac %.2f)", lv.BWLimitedFrac)
		}
	})

	t.Run("stencil-spills-between-stages", func(t *testing.T) {
		t.Parallel()
		cv := bench.Execute(get("parboil/stencil"), bench.ModeCopy, bench.SizeSmall)
		spill := cv.ClassFraction(core.ClassWRSpill) + cv.ClassFraction(core.ClassRRSpill)
		if spill < 0.2 {
			t.Fatalf("stencil inter-stage spills = %.1f%%, expected substantial", 100*spill)
		}
	})

	t.Run("overlap-estimate-bounded", func(t *testing.T) {
		t.Parallel()
		// Eq. 1 must never exceed observed run time (it models removing
		// serialization, not adding it).
		for _, name := range []string{"rodinia/backprop", "lonestar/bfs_wlc", "pannotia/fw"} {
			cv := bench.Execute(get(name), bench.ModeCopy, bench.SizeSmall)
			if cv.Rco > cv.ROI {
				t.Fatalf("%s: Rco %v > ROI %v", name, cv.Rco, cv.ROI)
			}
			if cv.Rmc > cv.ROI {
				t.Fatalf("%s: Rmc %v > ROI %v", name, cv.Rmc, cv.ROI)
			}
		}
	})

	t.Run("dwt2d-migration-headroom", func(t *testing.T) {
		t.Parallel()
		// CPU-dominated benchmarks have larger migrated-compute gains than
		// GPU-bound ones (the paper's dwt observation).
		dwt := bench.Execute(get("rodinia/dwt2d"), bench.ModeLimitedCopy, bench.SizeSmall)
		gemm := bench.Execute(get("parboil/sgemm"), bench.ModeLimitedCopy, bench.SizeSmall)
		dwtGain := 1 - float64(dwt.Rmc)/float64(dwt.ROI)
		gemmGain := 1 - float64(gemm.Rmc)/float64(gemm.ROI)
		if dwtGain <= gemmGain {
			t.Fatalf("dwt2d migration gain (%.1f%%) must exceed sgemm's (%.1f%%)",
				100*dwtGain, 100*gemmGain)
		}
	})
}
