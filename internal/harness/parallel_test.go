package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// synthRun builds a deterministic pseudo-random workload from seed: a
// dependency-correct pipeline of copies, kernels (optionally with dynamic
// parallelism, barriers, scratch traffic, and atomics), and a CPU reduction.
// Every data dependency goes through a Handle, which is the contract the
// parallel engine's generation hoisting relies on.
func synthRun(seed int64) func(s *device.System, mode bench.Mode, size bench.Size) {
	return func(s *device.System, _ bench.Mode, _ bench.Size) {
		rng := rand.New(rand.NewSource(seed))
		n := 512 + 4*rng.Intn(384) // multiple of 4: LdN below reads aligned quads
		block := []int{32, 64, 128}[rng.Intn(3)]
		in := device.AllocBuf[float32](s, n, "in", device.Host)
		out := device.AllocBuf[float32](s, n, "out", device.Host)
		hist := device.AllocBuf[int32](s, 64, "hist", device.Host)
		for i := range in.V {
			in.V[i] = float32(rng.Intn(1000)) * 0.5
		}

		s.BeginROI()
		din, h1 := device.ToDevice(s, in)
		dout, h2 := device.ToDevice(s, out)
		dhist, h3 := device.ToDevice(s, hist)
		var deps []*device.Handle
		for _, h := range []*device.Handle{h1, h2, h3} {
			if h != nil {
				deps = append(deps, h)
			}
		}
		last := s.AfterAll(deps...)

		kernels := 1 + rng.Intn(3)
		for kk := 0; kk < kernels; kk++ {
			stride := 1 + rng.Intn(7)
			doSync := rng.Intn(2) == 0
			doScratch := rng.Intn(2) == 0
			child := kk == 0 && rng.Intn(3) == 0
			grid := 2 + rng.Intn(6)
			scratch := 0
			if doScratch {
				scratch = 256
			}
			last = s.LaunchAsync(device.KernelSpec{
				Name: fmt.Sprintf("synth%d", kk), Grid: grid, Block: block,
				ScratchBytes: scratch,
				Func: func(t *device.Thread) {
					i := (t.Global() * stride) % n
					v := device.Ld(t, din, i)
					t.FLOP(4)
					if doScratch {
						t.ScratchOp(2)
					}
					device.AtomicAddI32(t, dhist, t.Global()%64, 1)
					if doSync {
						t.Sync()
					}
					vec := device.LdN(t, din, (i/4)*4, 4)
					acc := v
					for _, x := range vec {
						acc += x
					}
					device.St(t, dout, i, acc)
					if child && t.CTA() == 0 && t.Lane() == 0 {
						t.LaunchChild(device.KernelSpec{
							Name: "synth_child", Grid: 2, Block: 32,
							Func: func(ct *device.Thread) {
								j := ct.Global() % n
								device.St(ct, dout, j, device.Ld(ct, din, j)+1)
							},
						})
					}
				},
			}, last)
		}

		hb := device.FromDevice(s, out, dout, last)
		hh := device.FromDevice(s, hist, dhist, last)
		var cpuDeps []*device.Handle
		for _, h := range []*device.Handle{hb, hh} {
			if h != nil {
				cpuDeps = append(cpuDeps, h)
			}
		}
		cpuDeps = append(cpuDeps, last)
		done := s.CPUTaskAsync(device.CPUTaskSpec{
			Name: "reduce", Threads: 2,
			Func: func(c *device.CPUThread) {
				var acc int32
				for i := c.TID(); i < hist.Len(); i += c.Threads() {
					acc += device.Ld(c, hist, i)
				}
				c.FLOP(hist.Len())
				_ = acc
			},
		}, cpuDeps...)
		s.Wait(done)
		s.EndROI()

		var sum float64
		for _, v := range out.V {
			sum += float64(v)
		}
		var hsum int64
		for _, v := range hist.V {
			hsum += int64(v)
		}
		s.AddResult(sum, float64(hsum))
	}
}

// runDigest captures everything the determinism contract covers: the full
// report, run telemetry, functional results, raw hardware counters, and the
// complete trace event stream.
type runDigest struct {
	report   string
	simTime  sim.Tick
	events   uint64
	result   []float64
	counters map[string]uint64
	trace    []trace.Event
}

func digestRun(t *testing.T, run func(s *device.System, mode bench.Mode, size bench.Size), mode bench.Mode, par int) runDigest {
	t.Helper()
	rec := trace.New()
	out := Run(Spec{
		Bench: fakeBench{name: "synth", run: run},
		Mode:  mode, Size: bench.SizeSmall,
		Parallel: par, Trace: rec,
	})
	if out.Err != nil {
		t.Fatalf("par=%d mode=%v: run failed: %v", par, mode, out.Err)
	}
	rj, err := json.Marshal(out.Report.JSON())
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return runDigest{
		report:   string(rj),
		simTime:  out.SimTime,
		events:   out.Events,
		result:   out.Sys.Result,
		counters: out.Sys.Ctr.Snapshot(),
		trace:    rec.Events(),
	}
}

// diffDigests fails the test with the first field that diverges.
func diffDigests(t *testing.T, label string, serial, par runDigest) {
	t.Helper()
	if serial.simTime != par.simTime {
		t.Errorf("%s: sim time %v != serial %v", label, par.simTime, serial.simTime)
	}
	if serial.events != par.events {
		t.Errorf("%s: events %d != serial %d", label, par.events, serial.events)
	}
	if !reflect.DeepEqual(serial.result, par.result) {
		t.Errorf("%s: results %v != serial %v", label, par.result, serial.result)
	}
	if !reflect.DeepEqual(serial.counters, par.counters) {
		for k, v := range serial.counters {
			if par.counters[k] != v {
				t.Errorf("%s: counter %s = %d, serial %d", label, k, par.counters[k], v)
			}
		}
		for k := range par.counters {
			if _, ok := serial.counters[k]; !ok {
				t.Errorf("%s: extra counter %s", label, k)
			}
		}
	}
	if serial.report != par.report {
		t.Errorf("%s: report JSON diverged:\npar:    %s\nserial: %s", label, par.report, serial.report)
	}
	if len(serial.trace) != len(par.trace) {
		t.Errorf("%s: %d trace events, serial %d", label, len(par.trace), len(serial.trace))
	} else {
		for i := range serial.trace {
			if !reflect.DeepEqual(serial.trace[i], par.trace[i]) {
				t.Errorf("%s: trace event %d diverged:\npar:    %+v\nserial: %+v",
					label, i, par.trace[i], serial.trace[i])
				break
			}
		}
	}
}

// TestParallelByteIdentical is the tentpole contract on the harness level:
// for fixed workloads, every -par value reproduces the serial run exactly —
// report, counters, results, telemetry, and the full trace stream — on both
// system kinds.
func TestParallelByteIdentical(t *testing.T) {
	for _, mode := range []bench.Mode{bench.ModeCopy, bench.ModeLimitedCopy} {
		for seed := int64(1); seed <= 3; seed++ {
			run := synthRun(seed)
			serial := digestRun(t, run, mode, 0)
			for _, par := range []int{2, 3, 4, 8} {
				label := fmt.Sprintf("mode=%v seed=%d par=%d", mode, seed, par)
				diffDigests(t, label, serial, digestRun(t, run, mode, par))
			}
		}
	}
}

// engineMetric reads one parallel-engine series from the process registry.
func engineMetric(key string) float64 { return metrics.Default.Snapshot()[key] }

// TestParallelPersistentFallback checks a persistent kernel trips the
// documented serial fallback without disturbing determinism: the mixed
// workload (regular kernel, persistent kernel, regular kernel) stays
// byte-identical at every par, and every parallel run counts exactly one
// fallback under the persistent-kernel label.
func TestParallelPersistentFallback(t *testing.T) {
	run := func(s *device.System, _ bench.Mode, _ bench.Size) {
		n := 1024
		buf := device.AllocBuf[float32](s, n, "buf", device.Host)
		s.BeginROI()
		dbuf, hc := device.ToDevice(s, buf)
		var deps []*device.Handle
		if hc != nil {
			deps = append(deps, hc)
		}
		pre := s.LaunchAsync(device.KernelSpec{
			Name: "warmup", Grid: 4, Block: 64,
			Func: func(t *device.Thread) {
				device.St(t, dbuf, t.Global()%n, float32(t.Global()))
			},
		}, deps...)
		p := s.LaunchPersistent(device.PersistentKernelSpec{
			Name: "resident", Block: 64,
			Func: func(t *device.Thread) {
				i := (t.Global() * 3) % n
				device.St(t, dbuf, i, device.Ld(t, dbuf, i)+1)
			},
		}, pre)
		feed := p.Feed(4)
		p.Feed(4, feed)
		p.Close()
		post := s.LaunchAsync(device.KernelSpec{
			Name: "cooldown", Grid: 4, Block: 64,
			Func: func(t *device.Thread) {
				i := t.Global() % n
				device.St(t, dbuf, i, device.Ld(t, dbuf, i)*2)
			},
		}, p.Done())
		hb := device.FromDevice(s, buf, dbuf, post)
		if hb == nil {
			hb = post
		}
		s.Wait(hb)
		s.EndROI()
		var sum float64
		for _, v := range buf.V {
			sum += float64(v)
		}
		s.AddResult(sum)
	}
	for _, mode := range []bench.Mode{bench.ModeCopy, bench.ModeLimitedCopy} {
		serial := digestRun(t, run, mode, 0)
		for _, par := range []int{2, 4, 8} {
			label := fmt.Sprintf("persistent mode=%v par=%d", mode, par)
			const fallbacks = `sim_engine_serial_fallback_total{reason="persistent-kernel"}`
			before := engineMetric(fallbacks)
			diffDigests(t, label, serial, digestRun(t, run, mode, par))
			if got := engineMetric(fallbacks) - before; got != 1 {
				t.Errorf("%s: %s rose by %v, want 1", label, fallbacks, got)
			}
		}
	}
}

// TestParallelZeroLatency runs the parallel engine on systems whose
// cross-component latencies are all zero — the configurations a lookahead
// window would call unsafe. Generation order comes from launch order, not
// from simulated time, so the pipelined runs must still match the serial
// ones exactly.
func TestParallelZeroLatency(t *testing.T) {
	zero := func(cfg config.System) config.System {
		cfg.SwitchLatNs, cfg.KernelLaunchNs, cfg.CacheToCacheNs = 0, 0, 0
		cfg.PCIe.LatencyUs, cfg.VM.GPUFaultServNs, cfg.VM.CPUFaultServUs = 0, 0, 0
		return cfg
	}
	digest := func(cfg config.System, run func(*device.System, bench.Mode, bench.Size), par int) runDigest {
		rec := trace.New()
		s := device.NewSystem(cfg, device.WithTrace(rec), device.WithParallel(par))
		defer s.Release()
		run(s, bench.ModeCopy, bench.SizeSmall)
		rj, err := json.Marshal(s.Report("synth", "zero-latency").JSON())
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return runDigest{
			report: string(rj), simTime: s.Eng.Now(), events: s.Eng.EventsRun(),
			result: s.Result, counters: s.Ctr.Snapshot(), trace: rec.Events(),
		}
	}
	for _, cfg := range []config.System{zero(config.DiscreteGPU()), zero(config.HeteroProcessor())} {
		for seed := int64(1); seed <= 3; seed++ {
			run := synthRun(seed)
			serial := digest(cfg, run, 0)
			before := engineMetric("sim_engine_windows_total")
			label := fmt.Sprintf("zero-latency kind=%v seed=%d par=2", cfg.Kind, seed)
			diffDigests(t, label, serial, digest(cfg, run, 2))
			if engineMetric("sim_engine_windows_total") == before {
				t.Errorf("%s: the parallel engine never ran", label)
			}
		}
	}
}

// TestParallelDifferentialFuzz sweeps randomized workload shapes against
// randomized worker counts — the differential fuzz harness from the issue.
// The master seed is fixed so failures replay; each case logs its seeds.
func TestParallelDifferentialFuzz(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 6
	}
	master := rand.New(rand.NewSource(0x9e3779b9))
	for c := 0; c < cases; c++ {
		seed := master.Int63()
		par := 2 + master.Intn(7)
		mode := []bench.Mode{bench.ModeCopy, bench.ModeLimitedCopy}[master.Intn(2)]
		run := synthRun(seed)
		serial := digestRun(t, run, mode, 0)
		label := fmt.Sprintf("fuzz case=%d seed=%d mode=%v par=%d", c, seed, mode, par)
		diffDigests(t, label, serial, digestRun(t, run, mode, par))
		if t.Failed() {
			t.Fatalf("%s: divergence (replay with this seed)", label)
		}
	}
}
