// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablation|faults]
//	            [-size small|medium] [-only NAME[,NAME...]] [-jobs N] [-par N]
//	            [-timeout 60s] [-max-events N] [-stall 30s]
//	            [-state DIR]
//	            [-inject PLAN] [-csv DIR] [-json FILE] [-q] [-metrics]
//	            [-trace FILE] [-flame] [-progress]
//	            [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
//
// Figures 3-10 come from one shared sweep of every benchmark in copy and
// limited-copy mode (plus each benchmark's restructured organizations):
// Figure 3 is its four kmeans runs (alone, without -only, it sweeps just
// kmeans), and Figure 10 compares every measured overlapped organization
// against the Eq. 1 Rco bound from its baseline run. The ablations and
// the fault matrix run like the sweep: each of their runs names the
// machine it simulates, with a design knob moved or a fault injected.
// Runs execute on -jobs workers (default GOMAXPROCS), and -par
// additionally parallelizes each run internally (trace generation
// pipelined against the timing model); output is byte-identical for
// every -jobs and -par value.
// Sweeps are fault-tolerant: a run that panics, deadlocks, or exceeds its
// -timeout/-max-events budget is recorded and footnoted in the figures
// instead of aborting the sweep. -inject degrades the simulated hardware
// for every sweep and ablation run, Figure 3's included (the fault matrix
// sets its own plans; see -exp faults). -csv and -json export the sweep's rows for
// external tooling.
//
// -trace records the shared sweep into a Chrome trace-event / Perfetto
// JSON file (one process per run; open it at https://ui.perfetto.dev).
// -flame prints a text flame summary of the trace to stderr. -progress
// emits live per-run start/retry/done lines on stderr; figures on stdout
// stay byte-identical with it on or off.
//
// -state DIR makes the sweep, the ablations and the fault matrix
// crash-safe: every completed run is stored durably in the run store at
// DIR (see internal/store), keyed by what determines its result, the
// simulated machine included, and every run looks its key up first. A
// rerun with the same -state — after an interrupt, or with a sweep that
// overlaps an earlier one — simulates only the missing runs and produces
// output byte-identical to a sweep that simulated everything.
// SIGINT/SIGTERM shut down gracefully: the first signal stops dispatching
// new runs, drains (and stores) the in-flight ones, and writes a
// partial report; a second signal aborts the in-flight runs too; a third
// restores default signal behavior. An interrupted sweep exits 130.
// -stall kills any run whose simulated clock stops advancing for the
// given wall-clock window while events still execute (a livelock) and
// footnotes it like any other failed run.
//
// -cpuprofile/-memprofile write pprof profiles of the command itself
// (the simulator host process, not the simulated machine); -pprof serves
// net/http/pprof on the given address (e.g. localhost:6060) for live
// inspection of a long sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/trace"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

// figureText renders each figure of the shared sweep; sweepFigures is
// their output order.
var (
	figureText = map[string]func(*experiments.Results) string{
		"fig3": experiments.Fig3Text, "fig4": experiments.Fig4Text,
		"fig5": experiments.Fig5Text, "fig6": experiments.Fig6Text,
		"fig7": experiments.Fig7Text, "fig8": experiments.Fig8Text,
		"fig9": experiments.Fig9Text, "fig10": experiments.Fig10Text,
	}
	sweepFigures = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
)

// experimentNames are the names -exp accepts.
var experimentNames = append([]string{"all", "table1", "table2", "ablation", "faults"}, sweepFigures...)

func main() {
	os.Exit(run())
}

// run holds the real main so deferred cleanup (profile flushes) survives
// error exits; main turns its return into the process exit code.
func run() int {
	exp := flag.String("exp", "all", "which experiment: all, table1, table2, fig3..fig10, ablation, faults (comma-separated)")
	sizeFlag := flag.String("size", "small", "input scale: small or medium")
	csvDir := flag.String("csv", "", "also export the sweep as CSV files into this directory")
	jsonPath := flag.String("json", "", "also export the sweep's rows and summaries as JSON to this file")
	jobs := flag.Int("jobs", 0, "worker-pool size for sweep runs (0 = GOMAXPROCS, 1 = serial)")
	par := flag.Int("par", 0, "intra-run parallelism (0/1 = serial; any N >= 2 runs one generate+compile worker beside the timing thread; results byte-identical for every value)")
	only := flag.String("only", "", "restrict the shared sweep to these full benchmark names (comma-separated)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per run (0 = unlimited)")
	maxEvents := flag.Uint64("max-events", 0, "simulation event budget per run (0 = unlimited)")
	stall := flag.Duration("stall", 0, "kill a run whose simulated time stops advancing for this long (0 = disabled)")
	stateDir := flag.String("state", "", "keep the sweep's, the ablations' and the fault matrix's runs in the run store at DIR and reuse the ones it already holds")
	inject := flag.String("inject", "", "hardware fault plan for every run, e.g. pcie=0.25,fault=8,dram=0:100:600")
	quiet := flag.Bool("q", false, "suppress progress output")
	metricsDump := flag.Bool("metrics", false, "print run-lifecycle metrics (Prometheus text format) to stderr at exit")
	tracePath := flag.String("trace", "", "record the shared sweep as a Chrome trace-event / Perfetto JSON trace to this file")
	flame := flag.Bool("flame", false, "print a text flame summary of the sweep trace to stderr (implies tracing)")
	progress := flag.Bool("progress", false, "emit live per-run progress lines on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile of the command to this file at exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *metricsDump {
		// Deferred first so it runs after the profile flushes; stdout
		// (figures) stays byte-identical with the flag on or off.
		defer metrics.Default.WriteText(os.Stderr)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers its handlers on DefaultServeMux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "-pprof: %v\n", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
		}
	}

	size, err := bench.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-size: %v\n", err)
		return 2
	}
	fault, err := config.ParseFaults(*inject)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-inject: %v\n", err)
		return 2
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experimentNames, e) {
			fmt.Fprintf(os.Stderr, "-exp: unknown experiment %q (valid: %s)\n", e, strings.Join(experimentNames, ", "))
			return 2
		}
		want[e] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	if sel("table1") {
		fmt.Println(experiments.Table1())
	}
	if sel("table2") {
		fmt.Println(experiments.Table2Text())
	}
	var sweepFigs []string
	for _, f := range sweepFigures {
		if sel(f) {
			sweepFigs = append(sweepFigs, f)
		}
	}
	if !sel("ablation") && !sel("faults") && len(sweepFigs) == 0 {
		return 0
	}
	opts := experiments.SweepOpts{
		Budget:   harness.Budget{MaxEvents: *maxEvents, Timeout: *timeout},
		Fault:    fault,
		Jobs:     *jobs,
		Parallel: *par,
		Stall:    *stall,
		Trace:    *tracePath != "" || *flame,
	}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				opts.Only = append(opts.Only, n)
			}
		}
	} else if slices.Equal(sweepFigs, []string{"fig3"}) {
		// Figure 3 alone needs only the kmeans runs of the sweep.
		opts.Only = []string{"rodinia/kmeans"}
	}
	// Each RunSpecs call gets its own tracker, as a tracker's [k/n]
	// counters accumulate; one without a writer prints nothing.
	var progressOut io.Writer
	if *progress {
		progressOut = os.Stderr
	}
	st, err := experiments.StateRunner(*stateDir, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-state: %v\n", err)
		return 2
	}
	opts.Store, opts.OnStored = st.Store, st.OnStored
	dispatchCtx, runCtx, stopSignals := sweep.SignalContexts(nil, os.Stderr)
	opts.Ctx, opts.RunCtx = dispatchCtx, runCtx
	// completed and total count the ablations', the fault matrix's and
	// the sweep's runs for the interrupt notice; a nil outcome never ran.
	completed, total := 0, 0
	tally := func(outs ...*harness.Outcome) {
		for _, out := range outs {
			total++
			if out != nil {
				completed++
			}
		}
	}
	if sel("ablation") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running ablation sweeps...")
		}
		ao := opts
		ao.Progress = sweep.NewTracker(progressOut, 0)
		outs := experiments.AblationSweep(size, ao)
		tally(outs...)
		fmt.Println(experiments.AblationText(outs))
	}
	if sel("faults") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running fault-injection sweep (baseline + injected per case)...")
		}
		fo := opts
		fo.Progress = sweep.NewTracker(progressOut, 0)
		rows := experiments.FaultSweep(size, fo)
		for _, fr := range rows {
			tally(fr.Baseline, fr.Injected)
		}
		fmt.Println(experiments.FaultSweepText(rows))
	}
	var res *experiments.Results
	if len(sweepFigs) > 0 {
		opts.Progress = sweep.NewTracker(progressOut, 0)
		var errs []harness.RunError
		res, errs = experiments.RunSweep(size, opts)
		for i := range errs {
			fmt.Fprintf(os.Stderr, "run failed: %v\n", &errs[i])
		}
		completed += len(res.Runs)
		total += len(res.Runs) + len(res.Skipped)
	}
	// Read the interrupt state before stopSignals, which cancels both
	// contexts as part of releasing the handler.
	interrupted := dispatchCtx.Err() != nil
	stopSignals()
	if err := opts.Store.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: storing runs failed mid-sweep: %v\n", err)
		fmt.Fprintln(os.Stderr, "warning: the sweep continued without persistence (degraded); results below are complete but an interrupted re-run cannot resume past this point")
	}
	code := 0
	if interrupted {
		fmt.Fprintf(os.Stderr, "sweep interrupted: %d of %d runs completed; output below is a partial report\n",
			completed, total)
		if *stateDir != "" {
			fmt.Fprintf(os.Stderr, "resume with: -state %s\n", *stateDir)
		}
		// 128 + SIGINT, the conventional interrupted-process exit code;
		// scripts (and the resume test) distinguish it from run failures.
		code = 130
	}
	if res == nil {
		return code
	}
	if *tracePath != "" {
		if err := trace.WriteFile(*tracePath, res.Traces); err != nil {
			fmt.Fprintf(os.Stderr, "trace export failed: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote trace to %s\n", *tracePath)
		}
	}
	if *flame {
		fmt.Fprint(os.Stderr, trace.FlameText(res.Traces))
	}
	if *csvDir != "" {
		if err := experiments.WriteCSVs(*csvDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "csv export failed: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote CSVs to %s\n", *csvDir)
		}
	}
	if *jsonPath != "" {
		if err := experiments.WriteJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "json export failed: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote JSON to %s\n", *jsonPath)
		}
	}
	for _, f := range sweepFigs {
		fmt.Println(figureText[f](res))
	}
	return code
}
