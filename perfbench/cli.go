package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// The two CLI workloads. Their inputs are the registry's fixed benchmark
// programs, so the seed changes nothing they run: every seed measures the
// same work, and seed-to-seed spread is the host's alone.

// sweepMemBenchmarks are the memory-intensive small benchmarks behind
// Figs 5 and 9. rodinia/kmeans is left to run-par, which runs it at
// medium size; with it a pass would take twice as long and a run would
// hold too few passes for a steady median.
var sweepMemBenchmarks = []string{
	"parboil/spmv", "rodinia/backprop", "rodinia/streamcluster", "rodinia/nw", "rodinia/srad",
}

// warmup is the one simulation run after every set-up, untimed, so that
// the pass does not pay for first-touch heap growth.
func warmup(par int) error {
	b, ok := bench.Get("rodinia/nw")
	if !ok {
		return fmt.Errorf("rodinia/nw is not registered")
	}
	if out := harness.Run(harness.Spec{Bench: b, Mode: bench.ModeCopy, Size: bench.SizeSmall, Parallel: par}); out.Err != nil {
		return fmt.Errorf("warm-up run: %v", out.Err)
	}
	return nil
}

// reportCounts adds a report's exact analysis counts.
func reportCounts(counts map[string]uint64, r *core.Report) {
	if r == nil {
		return
	}
	counts["core.dram_observed"] += r.TotalDRAM()
	counts["core.footprint_lines"] += r.FootprintBytes / uint64(config.DiscreteGPU().LineBytes)
}

// sweepMem runs a CLI sweep (experiments.RunSweep, serial engine, nproc
// jobs) of sweepMemBenchmarks in every mode the sweep runs, renders Figs
// 4-9 and the sweep document as cmd/experiments does, and checks every
// per-benchmark row against results_small.txt. Its set-up resolves the
// benchmarks and loads results_small.txt.
type sweepMem struct {
	jobs     int
	expected map[string]bool // lines of results_small.txt
}

func (w *sweepMem) name() string { return "sweep-mem" }

func (w *sweepMem) minPasses() int { return 3 }

func (w *sweepMem) setup(bool) error {
	for _, name := range sweepMemBenchmarks {
		if _, ok := bench.Get(name); !ok {
			return fmt.Errorf("%s is not registered", name)
		}
	}
	f, err := os.Open("results_small.txt")
	if err != nil {
		return err
	}
	defer f.Close()
	w.expected = map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		w.expected[sc.Text()] = true
	}
	return sc.Err()
}

func (w *sweepMem) warm() error { return warmup(0) }

func (w *sweepMem) teardown() {}

func (w *sweepMem) pass(ctx context.Context, p *passOut) error {
	var res *experiments.Results
	t0 := time.Now()
	withLabels(ctx, w.name(), "experiments.RunSweep", func(context.Context) {
		res, _ = experiments.RunSweep(bench.SizeSmall, experiments.SweepOpts{Only: sweepMemBenchmarks, Jobs: w.jobs})
	})
	sweepWall := time.Since(t0)

	var figs []string
	t0 = time.Now()
	var err error
	withLabels(ctx, w.name(), "experiments.render", func(context.Context) {
		figs = []string{experiments.Fig4Text(res), experiments.Fig5Text(res), experiments.Fig6Text(res),
			experiments.Fig7Text(res), experiments.Fig8Text(res), experiments.Fig9Text(res)}
		_, err = json.MarshalIndent(res.JSON(), "", "  ")
	})
	if err != nil {
		return fmt.Errorf("sweep doc: %w", err)
	}
	p.layer["experiments.render_ms"] += msOf(time.Since(t0))

	var runWall time.Duration
	for _, r := range res.Runs {
		p.ops++
		if r.Failed {
			p.failed++
		}
		runWall += r.Wall
		p.counts["sim.events"] += r.Events
		p.counts["harness.attempts"] += uint64(r.Attempts)
		p.lat["harness.run_ms"] = append(p.lat["harness.run_ms"], msOf(r.Wall))
	}
	for _, m := range []map[string]*core.Report{res.Copy, res.Limited, res.Extra[bench.ModeAsyncStreams], res.Extra[bench.ModeParallelChunked]} {
		for _, r := range m {
			reportCounts(p.counts, r)
		}
	}
	p.layer["sweep.pool_idle_frac"] += 1 - runWall.Seconds()/(float64(w.jobs)*sweepWall.Seconds())
	if len(res.Failed) > 0 {
		return fmt.Errorf("%d runs failed, first: %v", len(res.Failed), &res.Failed[0])
	}
	return w.check(figs)
}

// check requires every per-benchmark row the figures rendered to appear
// verbatim in results_small.txt: a row depends only on its benchmark's
// runs, so a subset sweep must reproduce the full sweep's rows. Summary
// lines (geomeans over the subset) are not compared. Every figure must
// yield at least one row, so a figure whose rows stopped matching isRow
// fails instead of going unchecked.
func (w *sweepMem) check(figs []string) error {
	for i, fig := range figs {
		rows := 0
		for _, line := range strings.Split(strings.TrimRight(fig, "\n"), "\n") {
			if !isRow(line) {
				continue
			}
			rows++
			if !w.expected[line] {
				return fmt.Errorf("Fig %d row not in results_small.txt:\n  %q", 4+i, line)
			}
		}
		if rows == 0 {
			return fmt.Errorf("Fig %d rendered no per-benchmark row", 4+i)
		}
	}
	return nil
}

// isRow reports whether a figure line is a per-benchmark row: it names a
// swept benchmark, or continues the row above it (Fig 4's limited line).
func isRow(line string) bool {
	t := strings.TrimLeft(line, " ")
	for _, b := range sweepMemBenchmarks {
		if strings.HasPrefix(t, b+" ") {
			return true
		}
	}
	return strings.HasPrefix(line, " ") && strings.HasPrefix(t, "limited ")
}

// runParRef is the serial engine's digest of run-par's outcome, kept with
// the benchmark. Paths are relative to the checkout's root.
const runParRef = "perfbench/runpar.sha256"

// runPar runs medium rodinia/kmeans, the Fig 3 case study, through
// harness.Run on the parallel engine with nproc workers, and checks the
// wall-scrubbed outcome against the serial engine's digest kept in
// runpar.sha256. Its set-up resolves the benchmark and loads the digest.
type runPar struct {
	par  int
	b    bench.Benchmark
	want string // reference digest
}

func (w *runPar) name() string { return "run-par" }

func (w *runPar) minPasses() int { return 3 }

func (w *runPar) setup(bool) error {
	b, ok := bench.Get("rodinia/kmeans")
	if !ok {
		return fmt.Errorf("rodinia/kmeans is not registered")
	}
	w.b = b
	ref, err := os.ReadFile(runParRef)
	if err != nil {
		return err
	}
	w.want = strings.TrimSpace(string(ref))
	return nil
}

func (w *runPar) warm() error { return warmup(w.par) }

func (w *runPar) teardown() {}

func (w *runPar) spec(par int) harness.Spec {
	return harness.Spec{Bench: w.b, Mode: bench.ModeCopy, Size: bench.SizeMedium, Parallel: par}
}

// reference computes the digest runpar.sha256 holds: the same run on the
// serial engine.
func (w *runPar) reference() (string, error) {
	b, ok := bench.Get("rodinia/kmeans")
	if !ok {
		return "", fmt.Errorf("rodinia/kmeans is not registered")
	}
	w.b = b
	out := harness.Run(w.spec(0))
	if out.Err != nil {
		return "", out.Err
	}
	return outcomeDigest(out)
}

func (w *runPar) pass(ctx context.Context, p *passOut) error {
	before := metrics.Default.Snapshot()
	var out *harness.Outcome
	withLabels(ctx, w.name(), "harness.Run", func(context.Context) { out = harness.Run(w.spec(w.par)) })
	after := metrics.Default.Snapshot()
	p.layer["sim.windows"] += delta(before, after, "sim_engine_windows_total")
	p.layer["sim.serial_fallbacks"] += delta(before, after, "sim_engine_serial_fallback_total")

	p.ops++
	if out.Err != nil {
		p.failed++
		return fmt.Errorf("run failed: %v", out.Err)
	}
	p.counts["sim.events"] += out.Events
	p.counts["harness.attempts"] += uint64(out.Attempts)
	reportCounts(p.counts, out.Report)
	d, err := outcomeDigest(out)
	if err != nil {
		return err
	}
	if d != w.want {
		return fmt.Errorf("outcome digest %s, serial-engine reference %s", d, w.want)
	}
	return nil
}

// outcomeDigest hashes the outcome document with its wall times zeroed,
// the one field that legitimately differs between engines and runs.
func outcomeDigest(out *harness.Outcome) (string, error) {
	doc := out.JSON()
	doc.WallMs = 0
	if doc.Error != nil {
		doc.Error.WallMs = 0
	}
	for i := range doc.AttemptErrors {
		doc.AttemptErrors[i].WallMs = 0
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// delta sums the growth of every series of family name between two
// registry snapshots.
func delta(before, after map[string]float64, name string) float64 {
	var d float64
	for k, v := range after {
		if k == name || strings.HasPrefix(k, name+"{") {
			d += v - before[k]
		}
	}
	return d
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
