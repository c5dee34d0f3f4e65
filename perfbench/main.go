// Command perfbench is the repository's benchmark. It drives the program
// only through its public functions — experiments.RunSweep, harness.Run,
// and server.New(...).Handler() over loopback — on one of three
// workloads, checks the outputs, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer ones) as the last line of stdout:
//
//	bash perfbench/run.sh --workload sweep-mem --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for what each workload measures and
// how to read the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

// workload is one set of inputs the benchmark runs, repeated as passes.
type workload interface {
	name() string
	// minPasses is the fewest passes a phase may have, whatever the time
	// budget: enough for the percentiles the workload reports.
	minPasses() int
	// setup prepares one pass — loads its inputs and builds its program
	// objects — and is timed as setup_s.
	setup(traced bool) error
	// warm makes one untimed warm-up call after setup, so that the pass
	// does not pay for first-touch heap growth.
	warm() error
	// pass is one timed unit of work. It fills p and returns an error when
	// an output check fails.
	pass(ctx context.Context, p *passOut) error
	// teardown releases what setup made.
	teardown()
}

// passOut is what one pass reports besides host time.
type passOut struct {
	ops, failed int
	counts      map[string]uint64    // exact: identical on every pass of a seed
	layer       map[string]float64   // averaged over passes
	lat         map[string][]float64 // ms samples, pooled over passes
}

// phase accumulates the passes of one phase, untraced or traced.
type phase struct {
	walls, cpus, allocs, setups []float64
	rss                         []float64 // each pass's peak resident set
	gcCycles, gcCPU             float64
	ops, failed                 int
	counts                      map[string]uint64 // every pass's exact counts
	layer                       map[string]float64
	lat                         map[string][]float64
	prof                        *profiler // nil: untraced
}

// setupReps is how many times each pass sets up; setup_s is the median of
// all of a run's set-ups.
const setupReps = 5

// hardStop bounds a run well inside the three minutes a run may take: no
// pass starts when the last one would not finish before it.
const hardStop = 150 * time.Second

func main() { os.Exit(run()) }

func run() int {
	wname := flag.String("workload", "", "sweep-mem, run-par or serve-replay")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "seconds to measure")
	traceOn := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	printRef := flag.Bool("print-ref", false, "print run-par's serial-engine reference digest and exit")
	flag.Parse()
	start := time.Now()

	jobs := runtime.NumCPU() // nproc: every workload keeps at most this many threads busy
	buildDir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	var w workload
	switch *wname {
	case "sweep-mem":
		w = &sweepMem{jobs: jobs}
	case "run-par":
		rp := &runPar{par: jobs}
		if *printRef {
			d, err := rp.reference()
			if err != nil {
				return fail(err)
			}
			fmt.Println(d)
			return 0
		}
		w = rp
	case "serve-replay":
		sr, err := newServeReplay(*seed, jobs, buildDir)
		if err != nil {
			return fail(err)
		}
		w = sr
	default:
		return fail(fmt.Errorf("unknown --workload %q (want sweep-mem, run-par or serve-replay)", *wname))
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name(), *seed, *seconds, *traceOn)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", jobs, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	calib0 := calibrate()
	steal0, total0 := cpuTicks()

	budget := time.Duration(*seconds) * time.Second
	var plain, traced *phase
	var err error
	if *traceOn == 0 {
		plain, err = measure(w, budget, start, nil)
	} else {
		plain, err = measure(w, budget/2, start, nil)
		if err == nil {
			traced, err = measure(w, budget/2, start, newProfiler(buildDir))
		}
		if err == nil {
			err = sameCounts(plain.counts, traced.counts)
		}
	}
	steal1, total1 := cpuTicks()
	calib1 := calibrate()
	stealFrac := float64(steal1-steal0) / float64(max(total1-total0, 1))
	fmt.Printf("# host calib_ms before=%.2f after=%.2f steal_frac=%.4f\n", msOf(calib0), msOf(calib1), stealFrac)

	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name(), err)
	}
	for _, p := range []*phase{plain, traced} {
		if p != nil {
			res.Attempted += p.ops
			res.Failed += p.failed
		}
	}
	if res.Correct {
		if *traceOn == 0 {
			err = endToEnd(plain, res.Metrics)
		} else {
			err = perLayer(plain, traced, (msOf(calib0)+msOf(calib1))/2, res.Metrics)
			res.Metrics["host.steal_frac"] = metric{stealFrac, "ratio"}
		}
		if err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name(), err)
		}
	}
	printTable(res.Metrics)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 2
}

// measure runs at least minPasses passes, and more while they fit in the
// budget. Every pass must repeat the first pass's exact counts.
func measure(w workload, budget time.Duration, runStart time.Time, prof *profiler) (*phase, error) {
	ph := &phase{counts: map[string]uint64{}, layer: map[string]float64{}, lat: map[string][]float64{}, prof: prof}
	t0 := time.Now()
	var last time.Duration
	// The traced phase feeds no client-side percentile. Two passes give
	// serve-replay's handler miss p50 the 20 samples it needs.
	minPasses := w.minPasses()
	if prof != nil {
		minPasses = 2
	}
	for n := 0; ; n++ {
		// Past minPasses, a pass starts only if one as long as the last
		// still ends inside the budget.
		if n >= minPasses && time.Since(t0)+last > budget {
			break
		}
		if time.Since(runStart)+last > hardStop {
			if n < minPasses {
				return ph, fmt.Errorf("only %d of %d passes fit in %v", n, minPasses, hardStop)
			}
			break
		}
		passStart := time.Now()
		err := onePass(w, ph)
		w.teardown()
		if err != nil {
			return ph, fmt.Errorf("pass %d: %w", len(ph.walls)+1, err)
		}
		last = time.Since(passStart)
	}
	return ph, nil
}

func onePass(w workload, ph *phase) error {
	// Set-up starts from a collected heap, so it never pays for a GC of
	// the previous pass's garbage. It is repeated, and the pass keeps
	// the last one: a set-up takes well under a millisecond, so one sample
	// per pass would leave setup_s to a handful of noisy samples.
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t := time.Now()
		if err := w.setup(ph.prof != nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ph.setups = append(ph.setups, time.Since(t).Seconds())
	}
	if err := w.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	// Collect the warm-up's garbage now, untimed, so that every pass
	// starts from the same heap instead of paying for what came before.
	runtime.GC()

	p := &passOut{counts: map[string]uint64{}, layer: map[string]float64{}, lat: map[string][]float64{}}
	if ph.prof != nil {
		if err := ph.prof.start(); err != nil {
			return err
		}
	}
	stopRSS := sampleRSS()
	h0 := snapHost()
	err := w.pass(context.Background(), p)
	h1 := snapHost()
	rss := stopRSS()
	if ph.prof != nil {
		if perr := ph.prof.stop(w.name()); perr != nil && err == nil {
			err = perr
		}
	}
	ph.ops += p.ops
	ph.failed += p.failed
	if err != nil {
		return err
	}
	ph.walls = append(ph.walls, h1.at.Sub(h0.at).Seconds())
	ph.rss = append(ph.rss, rss)
	ph.cpus = append(ph.cpus, (h1.cpu - h0.cpu).Seconds())
	ph.allocs = append(ph.allocs, float64(h1.alloc-h0.alloc))
	ph.gcCycles += float64(h1.gcCycles - h0.gcCycles)
	ph.gcCPU += h1.gcCPU - h0.gcCPU
	for k, v := range p.layer {
		ph.layer[k] += v
	}
	for k, v := range p.lat {
		ph.lat[k] = append(ph.lat[k], v...)
	}
	if len(ph.walls) == 1 {
		ph.counts = p.counts
		return nil
	}
	if len(p.counts) != len(ph.counts) {
		return fmt.Errorf("pass reported %d exact counts, earlier passes %d", len(p.counts), len(ph.counts))
	}
	return sameCounts(ph.counts, p.counts)
}

// sameCounts requires every exact count both maps hold to be equal. A
// timing-dependent count (a coalesced request, a different hit set)
// fails here loudly instead of widening the medians.
func sameCounts(ref, got map[string]uint64) error {
	for k, v := range got {
		if want, ok := ref[k]; ok && v != want {
			return fmt.Errorf("exact count %s = %d, earlier passes of this seed had %d", k, v, want)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd fills the metrics a user of the program sees, as medians over
// the untraced passes.
func endToEnd(p *phase, m map[string]metric) error {
	m["setup_s"] = metric{median(p.setups), "s"}
	m["wall_s"] = metric{median(p.walls), "s"}
	m["cpu_s"] = metric{median(p.cpus), "s"}
	m["alloc_bytes"] = metric{median(p.allocs), "bytes"}
	m["peak_rss_bytes"] = metric{median(p.rss), "bytes"}
	fmt.Printf("# passes=%d fail_frac=%.4f\n", len(p.walls), float64(p.failed)/float64(max(p.ops, 1)))
	fmt.Printf("# pass wall_s %.3f\n# pass cpu_s  %.3f\n# pass rss_MB %.0f\n", p.walls, p.cpus, scale(p.rss, 1e-6))
	printMix(p)
	// The serve-replay latencies, printed with their sample counts. They
	// are per-layer in the result line; see README.md.
	for _, name := range []string{"hit_ms", "miss_ms"} {
		for _, q := range []float64{0.5, 0.9} {
			if xs := p.lat[name]; len(xs) > 0 {
				v, err := percentile(xs, q)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fmt.Printf("# %s_p%g_ms %.4f ms (n=%d)\n", strings.TrimSuffix(name, "_ms"), q*100, v.Value, v.N)
			}
		}
	}
	return nil
}

// hitFrac and sweepFrac are the shares of a serve-replay pass's requests
// that hit the cache and that are sweeps; both 0 on other workloads.
func hitFrac(p *phase) float64 {
	hits, misses := p.counts["server.cache_hits"], p.counts["server.cache_misses"]
	return float64(hits) / float64(max(hits+misses, 1))
}

func sweepFrac(p *phase) float64 {
	n := p.counts["server.cache_hits"] + p.counts["server.cache_misses"]
	return float64(p.counts["server.sweep_requests"]) / float64(max(n, 1))
}

// printMix prints the request mix serve-replay measured. It is the same on
// every pass: the exact-count check holds hits, misses and sweeps fixed.
func printMix(p *phase) {
	if _, ok := p.counts["server.cache_hits"]; !ok {
		return
	}
	fmt.Printf("# stream mix per pass: hits=%d misses=%d sweeps=%d hit_frac=%.4f sweep_frac=%.4f\n",
		p.counts["server.cache_hits"], p.counts["server.cache_misses"], p.counts["server.sweep_requests"],
		hitFrac(p), sweepFrac(p))
}

// layers are the modules CPU time and allocations are attributed to:
// the repository's packages under internal/, the benchmark itself, and
// the Go runtime. Packages not listed are summed as "other".
var layers = []string{
	"suites", "device", "gpucore", "cpucore", "memory", "pcie", "vm", "sim", "stats",
	"core", "harness", "experiments", "sweep", "server", "journal", "fsx", "perfbench", "other",
}

// perLayer fills the traced run's metrics. Host figures are per pass,
// from the traced passes; percentiles and exact counts come from the
// untraced passes, so tracing cannot distort them.
func perLayer(plain, traced *phase, calibMs float64, m map[string]metric) error {
	n := float64(len(traced.walls))
	bucket := func(l string) string {
		if l == "go" || slices.Contains(layers, l) {
			return l
		}
		return "other"
	}
	cpu := map[string]float64{}
	alloc := map[string]float64{}
	for l, v := range traced.prof.cpu {
		cpu[bucket(l)] += v / n
	}
	for l, v := range traced.prof.alloc {
		alloc[bucket(l)] += v / n
	}
	for _, l := range layers {
		m[l+".cpu_s"] = metric{cpu[l], "s"}
		m[l+".alloc_bytes"] = metric{alloc[l], "bytes"}
	}
	m["go.runtime_cpu_s"] = metric{cpu["go"], "s"}
	m["go.runtime_alloc_bytes"] = metric{alloc["go"], "bytes"}
	m["go.gc_cycles"] = metric{traced.gcCycles / n, "count"}
	m["go.gc_cpu_s"] = metric{traced.gcCPU / n, "s"}
	m["host.calib_ms"] = metric{calibMs, "ms"}
	m["trace.overhead_s"] = metric{median(traced.walls) - median(plain.walls), "s"}

	printMix(plain)
	m["server.hit_frac"] = metric{hitFrac(plain), "ratio"}
	m["server.sweep_frac"] = metric{sweepFrac(plain), "ratio"}
	for _, k := range []string{"sim.events", "core.dram_observed", "core.footprint_lines", "harness.attempts",
		"server.cache_hits", "server.cache_misses", "server.sim_runs", "server.response_bytes",
		"fsx.syncs", "fsx.writes", "fsx.ops"} {
		v := plain.counts[k]
		if _, ok := plain.counts[k]; !ok {
			v = traced.counts[k] // counted by the tracing wrappers only
		}
		unit := "count"
		if strings.HasSuffix(k, "bytes") {
			unit = "bytes"
		}
		m[k] = metric{float64(v), unit}
	}

	avg := func(p *phase, k string) float64 { return p.layer[k] / float64(len(p.walls)) }
	m["sim.windows"] = metric{avg(plain, "sim.windows"), "count"}
	m["sim.serial_fallbacks"] = metric{avg(plain, "sim.serial_fallbacks"), "count"}
	m["sim.cores_busy"] = metric{median(plain.cpus) / median(plain.walls), "cores"}
	m["sweep.pool_idle_frac"] = metric{avg(plain, "sweep.pool_idle_frac"), "ratio"}
	m["experiments.render_ms"] = metric{avg(plain, "experiments.render_ms"), "ms"}
	m["server.req_per_s"] = metric{avg(plain, "server.req_per_s"), "1/s"}
	m["fsx.busy_ms"] = metric{avg(traced, "fsx.busy_ms"), "ms"}
	m["fsx.bytes_written"] = metric{avg(traced, "fsx.bytes_written"), "bytes"}

	// Percentiles: 0 where the workload has no such samples.
	pcts := []struct {
		name string
		p    *phase
		lat  string
		q    float64
	}{
		{"harness.run_ms_p50", plain, "harness.run_ms", 0.5},
		{"server.hit_p50_ms", plain, "hit_ms", 0.5},
		{"server.hit_p90_ms", plain, "hit_ms", 0.9},
		{"server.hit_p99_ms", plain, "hit_ms", 0.99},
		{"server.miss_p50_ms", plain, "miss_ms", 0.5},
		{"server.miss_p90_ms", plain, "miss_ms", 0.9},
		{"server.handler_hit_ms_p50", traced, "handler_hit_ms", 0.5},
		{"server.handler_miss_ms_p50", traced, "handler_miss_ms", 0.5},
		{"server.transport_ms_p50", traced, "transport_ms", 0.5},
	}
	for _, pc := range pcts {
		v := pct{}
		if xs := pc.p.lat[pc.lat]; len(xs) > 0 {
			var err error
			if v, err = percentile(xs, pc.q); err != nil {
				return fmt.Errorf("%s: %w", pc.name, err)
			}
			fmt.Printf("# %s %.4f ms (n=%d)\n", pc.name, v.Value, v.N)
		}
		m[pc.name] = metric{v.Value, "ms"}
	}
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-28s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
