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
// Figures 4-10 come from one shared sweep of every benchmark in copy and
// limited-copy mode (plus each benchmark's restructured organizations);
// Figure 3 additionally runs the kmeans restructured organizations, and
// Figure 10 compares every measured overlapped organization against the
// Eq. 1 Rco bound from its baseline run. The sweep's runs execute on
// -jobs workers (default GOMAXPROCS), and -par additionally parallelizes
// each run internally — the sweep's, Figure 3's and the fault matrix's
// (trace generation pipelined against the timing model); output is
// byte-identical for every -jobs and -par value.
// Sweeps are fault-tolerant: a run that panics, deadlocks, or exceeds its
// -timeout/-max-events budget is recorded and footnoted in the figures
// instead of aborting the sweep. -inject degrades the simulated hardware
// for every run (see -exp faults for the curated degradation matrix).
// -csv and -json export the sweep's rows for external tooling.
//
// -trace records the shared sweep into a Chrome trace-event / Perfetto
// JSON file (one process per run; open it at https://ui.perfetto.dev).
// -flame prints a text flame summary of the trace to stderr. -progress
// emits live per-run start/retry/done lines on stderr; figures on stdout
// stay byte-identical with it on or off.
//
// -state DIR makes the shared sweep crash-safe: every completed run is
// stored durably in the run store at DIR (see internal/store), keyed by
// what determines its result, and every run looks its key up first. A
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
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
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
	stateDir := flag.String("state", "", "keep the shared sweep's runs in the run store at DIR and reuse the ones it already holds")
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

	size := bench.SizeSmall
	switch *sizeFlag {
	case "small":
	case "medium":
		size = bench.SizeMedium
	default:
		fmt.Fprintf(os.Stderr, "unknown size %q\n", *sizeFlag)
		return 2
	}
	budget := harness.Budget{MaxEvents: *maxEvents, Timeout: *timeout}
	fault, err := harness.ParseFaultPlan(*inject)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-inject: %v\n", err)
		return 2
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	if sel("table1") {
		fmt.Println(experiments.Table1())
	}
	if sel("table2") {
		fmt.Println(experiments.Table2Text())
	}
	if sel("ablation") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running ablation sweeps...")
		}
		fmt.Println(experiments.AblationText(size))
	}
	if sel("faults") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running fault-injection sweep (baseline + injected per case)...")
		}
		fmt.Println(experiments.FaultSweepText(experiments.FaultSweep(size, budget, *par)))
	}
	if sel("fig3") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running kmeans case study (4 organizations)...")
		}
		rows, errs := experiments.Fig3(size, budget, *par)
		fmt.Println(experiments.Fig3Text(rows, errs))
	}

	needSweep := false
	for _, f := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if sel(f) {
			needSweep = true
		}
	}
	if !needSweep {
		return 0
	}
	opts := experiments.SweepOpts{
		Budget:   budget,
		Fault:    fault,
		Jobs:     *jobs,
		Parallel: *par,
		Stall:    *stall,
		Trace:    *tracePath != "" || *flame,
		OnProgress: func(name, mode string) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "running %s (%s)...\n", name, mode)
			}
		},
	}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				opts.Only = append(opts.Only, n)
			}
		}
	}
	if *progress {
		opts.Progress = sweep.NewTracker(os.Stderr, 0)
	}
	st, err := experiments.StateRunner(*stateDir, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-state: %v\n", err)
		return 2
	}
	opts.Store, opts.OnStored = st.Store, st.OnStored
	dispatchCtx, runCtx, stopSignals := sweep.SignalContexts(nil, os.Stderr)
	opts.Ctx, opts.RunCtx = dispatchCtx, runCtx
	res, errs := experiments.RunSweep(size, opts)
	// Read the interrupt state before stopSignals, which cancels both
	// contexts as part of releasing the handler.
	interrupted := dispatchCtx.Err() != nil
	stopSignals()
	for i := range errs {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", &errs[i])
	}
	if err := opts.Store.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: storing runs failed mid-sweep: %v\n", err)
		fmt.Fprintln(os.Stderr, "warning: the sweep continued without persistence (degraded); results below are complete but an interrupted re-run cannot resume past this point")
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "sweep interrupted: %d of %d runs completed; output below is a partial report\n",
			len(res.Runs), len(res.Runs)+len(res.Skipped))
		if *stateDir != "" {
			fmt.Fprintf(os.Stderr, "resume with: -state %s\n", *stateDir)
		}
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
	if sel("fig4") {
		fmt.Println(experiments.Fig4Text(res))
	}
	if sel("fig5") {
		fmt.Println(experiments.Fig5Text(res))
	}
	if sel("fig6") {
		fmt.Println(experiments.Fig6Text(res))
	}
	if sel("fig7") {
		fmt.Println(experiments.Fig7Text(res))
	}
	if sel("fig8") {
		fmt.Println(experiments.Fig8Text(res))
	}
	if sel("fig9") {
		fmt.Println(experiments.Fig9Text(res))
	}
	if sel("fig10") {
		fmt.Println(experiments.Fig10Text(res))
	}
	if interrupted {
		// 128 + SIGINT, the conventional interrupted-process exit code;
		// scripts (and the resume test) distinguish it from run failures.
		return 130
	}
	return 0
}
