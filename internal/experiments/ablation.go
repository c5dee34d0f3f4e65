package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/harness"
)

// AblationCase is one point of an ablation: a benchmark run on its mode's
// machine with one design knob moved.
type AblationCase struct {
	Knob  string // the knob, as the table names it
	Value string // its value at this point
	Bench bench.Benchmark
	Mode  bench.Mode
	Tweak func(*config.System) // moves the knob
}

// ablations are the design-knob sweeps in output order: each knob's
// heading and the column its rows add. Every column is read from the
// run's report, so a run served from the store renders like a simulated
// one.
var ablations = []struct {
	knob, title string
	extra       func(*core.Report) string
}{
	{"coherence", "1. CPU-GPU cache coherence (producer-consumer microbenchmark):", func(r *core.Report) string {
		return fmt.Sprintf("CPU active %.3f ms, c2c transfers %d", r.CPUActive.Millis(), counter(r, "het-switch.c2c_transfers"))
	}},
	{"fault-us", "2. GPU page-fault handler cost (srad limited-copy):", func(r *core.Report) string {
		return fmt.Sprintf("faults %d", counter(r, "vm.gpu_faults_to_cpu"))
	}},
	{"gpu-l2-kb", "3. GPU L2 capacity (spmv limited-copy):", func(r *core.Report) string {
		return fmt.Sprintf("R-R contention %.1f%%", 100*r.ClassFraction(core.ClassRRContention))
	}},
	{"pcie-GB/s", "4. PCIe bandwidth (kmeans copy):", func(r *core.Report) string {
		return fmt.Sprintf("copy active %.3f ms", r.CopyActive.Millis())
	}},
}

// AblationCases is the -exp ablation table, in output order:
//   - coherence on and off for a GPU-producer, CPU-consumer hand-off;
//   - the CPU page-fault handler's occupancy for srad, the paper's worst
//     fault victim (0 lets the GPU take its own faults);
//   - the shared GPU L2 capacity for spmv, the Section V-C argument that
//     R-R contention is a capacity problem;
//   - the discrete system's PCIe bandwidth for kmeans, the knob behind
//     the Section II bandwidth-asymmetry argument.
//
// Each knob has one point at its stock value (coherence on, 2.0 µs,
// 1024 kB, 8 GB/s), whose run is the stock run of its benchmark and mode.
// A case whose benchmark is not registered is left out.
func AblationCases() []AblationCase {
	srad, _ := bench.Get("rodinia/srad")
	spmv, _ := bench.Get("parboil/spmv")
	km, _ := bench.Get("rodinia/kmeans")
	cases := []AblationCase{
		{"coherence", "on", pcMicro{}, bench.ModeLimitedCopy, func(*config.System) {}},
		{"coherence", "off", pcMicro{}, bench.ModeLimitedCopy, func(c *config.System) { c.NoCoherence = true }},
	}
	for _, us := range []float64{0, 0.5, 1, 2, 4} {
		cases = append(cases, AblationCase{"fault-us", fmt.Sprintf("%.1f", us), srad, bench.ModeLimitedCopy, func(c *config.System) {
			c.VM.CPUFaultServUs = us
			if us == 0 {
				c.VM.GPUFaultToCPU = false
				c.VM.GPUFaultServNs = 0
			}
		}})
	}
	for _, kb := range []int{256, 512, 1024, 4096} {
		cases = append(cases, AblationCase{"gpu-l2-kb", fmt.Sprint(kb), spmv, bench.ModeLimitedCopy, func(c *config.System) {
			c.GPU.L2Bytes = kb * 1024
		}})
	}
	for _, gbs := range []float64{4, 8, 16, 32} {
		cases = append(cases, AblationCase{"pcie-GB/s", fmt.Sprintf("%.0f", gbs), km, bench.ModeCopy, func(c *config.System) {
			c.PCIe.BytesPerSec = gbs * 1e9
		}})
	}
	return slices.DeleteFunc(cases, func(c AblationCase) bool { return c.Bench == nil })
}

// AblationSweep runs every ablation case through RunSpecs with opts, as a
// sweep's runs are: each case's machine is its mode's, with opts.Fault
// injected and the case's knob moved. The outcomes come back in
// AblationCases order; nil is a run an interrupt kept from starting. The
// cases fix each run's benchmark, so opts.Only, PerRun and Trace do not
// apply.
func AblationSweep(size bench.Size, opts SweepOpts) []*harness.Outcome {
	tmpl := specTemplate(size, opts)
	var specs []harness.Spec
	for _, c := range AblationCases() {
		spec := tmpl
		spec.Bench, spec.Mode, spec.Machine = c.Bench, c.Mode, withFaults(c.Mode, opts.Fault)
		c.Tweak(spec.Machine)
		specs = append(specs, spec)
	}
	return RunSpecs(specs, opts.runner())
}

// AblationText renders the ablation sweeps from AblationSweep's outcomes.
func AblationText(outs []*harness.Outcome) string {
	cases := AblationCases()
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATIONS (design-choice sensitivity)\n")
	for _, a := range ablations {
		fmt.Fprintf(&b, "%s\n", a.title)
		for i, out := range outs {
			if cases[i].Knob != a.knob {
				continue
			}
			fmt.Fprintf(&b, "  %-12s %-6s  ROI %9s", cases[i].Knob, cases[i].Value, roiCell(out))
			if rep := report(out); rep != nil {
				fmt.Fprintf(&b, " ms   %s", a.extra(rep))
			}
			b.WriteString("\n")
			writeFailure(&b, out)
		}
	}
	return b.String()
}

// counter is a hardware counter's total over a run: the sum of its
// per-phase deltas, which the report keeps.
func counter(r *core.Report, name string) uint64 {
	var n uint64
	for _, p := range r.Phases {
		n += p.Deltas[name]
	}
	return n
}

// pcMicro is the coherence ablation's producer-consumer microbenchmark:
// the GPU produces a buffer that fits in its L2 and the CPU immediately
// walks it with dependent loads. With coherence the reads are
// cache-to-cache transfers; without it every one goes to DRAM. It is not
// registered, so the census and the figures never see it.
type pcMicro struct{}

func (pcMicro) Info() bench.Info {
	return bench.Info{Suite: "ablation", Name: "pc-micro"}
}

func (pcMicro) Run(s *device.System, _ bench.Mode, size bench.Size) {
	n := bench.ScaleN(64*1024, size) // 256kB-1MB of float32
	buf := device.AllocBuf[float32](s, n, "pc_buffer", device.Host)
	s.BeginROI()
	s.Launch(device.KernelSpec{
		Name: "produce", Grid: n / 256, Block: 256,
		Func: func(t *device.Thread) {
			i := t.Global()
			t.FLOP(2)
			device.St(t, buf, i, float32(i%7))
		},
	})
	s.CPUTask(device.CPUTaskSpec{
		Name: "consume_dependent", Threads: 1,
		Func: func(c *device.CPUThread) {
			var acc float32
			for i := 0; i < n; i += 32 { // one dependent load per line
				acc += device.LdDep(c, buf, i)
				c.FLOP(1)
			}
			_ = acc
		},
	})
	s.EndROI()
}
