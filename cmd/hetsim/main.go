// Command hetsim runs benchmarks in one mode and prints each run's full
// analysis report — the smallest way to poke at the simulator. It only
// parses flags, lists and prints: the runs themselves go through
// experiments.RunSpecs, the slot runner the sweeps of cmd/experiments and
// hetsimd's /v1/run share (pool, progress and run-store reuse alike).
//
// Usage:
//
//	hetsim -bench rodinia/kmeans[,parboil/spmv,...] [-mode copy|limited-copy|async-streams|parallel-chunked]
//	       [-size small|medium] [-jobs N] [-par N] [-timeout 60s] [-max-events N] [-stall 30s]
//	       [-state DIR]
//	       [-inject PLAN] [-json FILE] [-counters]
//	       [-trace FILE] [-flame] [-progress]
//	hetsim -list
//
// -bench takes a comma-separated list; the runs execute on -jobs workers
// (default GOMAXPROCS), -par additionally parallelizes each run internally
// (byte-identical output for every value), and the reports print in the
// order listed. Runs
// execute under the fault-tolerant harness: a panic, deadlock, or exceeded
// -timeout/-max-events budget terminates with a diagnostic instead of
// crashing or hanging, and a budget-exceeded medium run is retried once at
// small. -inject degrades the simulated hardware, e.g.
// -inject pcie=0.25,fault=8,dram=0:100:600. -json exports every outcome
// (report, attempts, errors) as a JSON array.
//
// -trace records every run into a Chrome trace-event / Perfetto JSON file
// (one process per run; open it at https://ui.perfetto.dev). -flame prints
// a text flame summary of the trace to stderr. -progress emits live
// per-run start/retry/done lines on stderr; reports on stdout stay
// byte-identical with it on or off.
//
// -state DIR keeps every completed run in the run store at DIR (see
// internal/store), keyed by what determines its result. Each run first
// looks its key up, so rerunning an interrupted invocation — or any
// invocation, sweep or hetsimd request that shares runs with an earlier
// one — simulates only the missing runs and prints the same reports an
// uninterrupted invocation would. SIGINT/SIGTERM drain in-flight runs on
// the first signal, abort them on the second; an interrupted invocation
// exits 130. -stall kills a run whose simulated clock freezes for the
// given window while events still execute. Stored runs carry no live
// machine, so -counters prints a note for them instead of the counter
// dump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/trace"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

func main() {
	name := flag.String("bench", "", "benchmark full name (suite/name), or a comma-separated list")
	modeFlag := flag.String("mode", "copy", "copy, limited-copy, async-streams, or parallel-chunked")
	sizeFlag := flag.String("size", "small", "small or medium")
	jobs := flag.Int("jobs", 0, "worker-pool size when running several benchmarks (0 = GOMAXPROCS)")
	par := flag.Int("par", 0, "intra-run parallelism (0/1 = serial; any N >= 2 runs one generate+compile worker beside the timing thread; results byte-identical for every value)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per run (0 = unlimited)")
	maxEvents := flag.Uint64("max-events", 0, "simulation event budget per run (0 = unlimited)")
	stall := flag.Duration("stall", 0, "kill a run whose simulated time stops advancing for this long (0 = disabled)")
	stateDir := flag.String("state", "", "keep completed runs in the run store at DIR and reuse the ones it already holds")
	inject := flag.String("inject", "", "hardware fault plan, e.g. pcie=0.25,fault=8,dram=0:100:600")
	jsonPath := flag.String("json", "", "export every run's outcome as a JSON array to this file")
	counters := flag.Bool("counters", false, "also dump every hardware counter")
	tracePath := flag.String("trace", "", "record a Chrome trace-event / Perfetto JSON trace to this file")
	flame := flag.Bool("flame", false, "print a text flame summary of the trace to stderr (implies tracing)")
	progress := flag.Bool("progress", false, "emit live per-run progress lines on stderr")
	list := flag.Bool("list", false, "list available benchmarks")
	flag.Parse()

	if *list {
		fmt.Printf("%-26s %-42s %s\n", "NAME", "MODES", "DESCRIPTION")
		for _, b := range bench.All() {
			info := b.Info()
			modes := ""
			for i, m := range info.Modes() {
				if i > 0 {
					modes += ","
				}
				modes += m.String()
			}
			fmt.Printf("%-26s %-42s %s\n", info.FullName(), modes, info.Desc)
		}
		return
	}

	mode, err := bench.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	size := bench.SizeSmall
	if *sizeFlag == "medium" {
		size = bench.SizeMedium
	}
	fault, err := harness.ParseFaultPlan(*inject)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-inject: %v\n", err)
		os.Exit(2)
	}

	// The signal handler goes in first so the specs can carry its run
	// context: the first SIGINT/SIGTERM stops dispatch, the second aborts
	// in-flight runs.
	dispatchCtx, runCtx, stopSignals := sweep.SignalContexts(nil, os.Stderr)
	var specs []harness.Spec
	for _, n := range strings.Split(*name, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		b, ok := bench.Get(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", n)
			fmt.Fprintln(os.Stderr, "use -list to see available benchmarks")
			os.Exit(1)
		}
		spec := harness.Spec{
			Bench: b, Mode: mode, Size: size, Fault: fault, Ctx: runCtx, Stall: *stall, Parallel: *par,
			Budget: harness.Budget{MaxEvents: *maxEvents, Timeout: *timeout},
		}
		if *tracePath != "" || *flame {
			spec.Trace = trace.New()
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "no benchmark given; use -bench NAME[,NAME...] or -list")
		os.Exit(2)
	}
	// The run store, when -state is given: every run looks its key up
	// first, and completed runs are stored durably.
	runner, err := experiments.StateRunner(*stateDir, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-state: %v\n", err)
		os.Exit(2)
	}
	runner.Jobs, runner.Ctx = *jobs, dispatchCtx
	if *progress {
		runner.Progress = sweep.NewTracker(os.Stderr, 0)
	}
	// Run every benchmark on the worker pool; print in the order listed.
	outs := experiments.RunSpecs(specs, runner)
	// Read the interrupt state before stopSignals, which cancels both
	// contexts as part of releasing the handler.
	interrupted := dispatchCtx.Err() != nil
	stopSignals()
	if err := runner.Store.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: storing runs failed mid-run: %v\n", err)
	}

	if *tracePath != "" || *flame {
		var runs []trace.RunTrace
		for i, spec := range specs {
			if outs[i] == nil {
				continue // never dispatched (interrupted before start)
			}
			runs = append(runs, trace.RunTrace{
				Name: spec.Bench.Info().FullName() + " " + mode.String() + " " + outs[i].Size.String(),
				Rec:  spec.Trace,
			})
		}
		if *tracePath != "" {
			if err := trace.WriteFile(*tracePath, runs); err != nil {
				fmt.Fprintf(os.Stderr, "trace export failed: %v\n", err)
				os.Exit(1)
			}
		}
		if *flame {
			fmt.Fprint(os.Stderr, trace.FlameText(runs))
		}
	}

	if *jsonPath != "" {
		var docs []harness.OutcomeJSON
		for _, out := range outs {
			if out == nil {
				continue // never dispatched (interrupted before start)
			}
			docs = append(docs, out.JSON())
		}
		data, err := json.MarshalIndent(docs, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "json export failed: %v\n", err)
			os.Exit(1)
		}
	}

	failed := false
	for i, out := range outs {
		if out == nil {
			fmt.Fprintf(os.Stderr, "skipped (interrupted before start): %s\n", specs[i].Bench.Info().FullName())
			continue
		}
		if out.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "run failed: %v\n", out.Err)
			if len(out.Err.Stack) > 0 {
				fmt.Fprintf(os.Stderr, "%s\n", out.Err.Stack)
			}
			continue
		}
		if out.Degraded {
			fmt.Fprintf(os.Stderr, "note: ran at size %s after exceeding the budget at %s (%d attempts)\n",
				out.Size, size, out.Attempts)
		}
		if fault.Active() {
			fmt.Printf("injected faults: %s\n", fault)
		}
		fmt.Print(out.Report.String())
		if *counters {
			fmt.Println("\nhardware counters:")
			if out.Sys == nil {
				fmt.Println("(reused from the run store; live counters not recorded)")
			} else {
				fmt.Print(out.Sys.Ctr.String())
			}
		}
	}
	if interrupted {
		if *stateDir != "" {
			fmt.Fprintf(os.Stderr, "resume with: -state %s\n", *stateDir)
		}
		os.Exit(130)
	}
	if failed {
		os.Exit(1)
	}
}
