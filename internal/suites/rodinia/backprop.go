package rodinia

import (
	"math"

	"repro/internal/bench"
	"repro/internal/device"
)

// Backprop is Rodinia's two-layer neural-network trainer: a wide
// layer-forward GPU kernel with a per-CTA partial reduction, a small CPU
// phase that finishes the reduction and computes deltas, and a GPU
// weight-adjust kernel — with the weight matrix shuttled between memories
// every step in the copy version.
type Backprop struct{}

func init() { bench.Register(Backprop{}) }

// Info describes backprop.
func (Backprop) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "backprop",
		Desc:   "two-layer neural net training step",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams, bench.ModeParallelChunked},
	}
}

type bpDims struct{ n, hid, block int }

func bpSize(size bench.Size) bpDims {
	return bpDims{n: bench.ScaleN(65536, size), hid: 16, block: 256}
}

type bpData struct {
	bpDims
	input   *device.Buf[float32]
	weights *device.Buf[float32] // [i*hid+j]
	partial *device.Buf[float32] // per-CTA hidden partials
	hidden  *device.Buf[float32]
	delta   *device.Buf[float32]
}

func bpSetup(s *device.System, size bench.Size) *bpData {
	dm := bpSize(size)
	d := &bpData{bpDims: dm}
	d.input = device.AllocBuf[float32](s, dm.n, "input", device.Host)
	d.weights = device.AllocBuf[float32](s, dm.n*dm.hid, "weights", device.Host)
	d.partial = device.AllocBuf[float32](s, (dm.n/dm.block)*dm.hid, "partials", device.Device)
	d.hidden = device.AllocBuf[float32](s, dm.hid, "hidden", device.Host)
	d.delta = device.AllocBuf[float32](s, dm.hid, "delta", device.Host)
	fillPoints(d.input.V)
	fillPoints(d.weights.V)
	return d
}

// forwardKernel computes per-CTA partial sums of input[i]*w[i][j] over the
// chunk [base, base+count).
func (d *bpData) forwardKernel(input, weights, partial *device.Buf[float32], base, count, ctaBase int) device.KernelSpec {
	ctaAcc := make([][]float32, count/d.block)
	return device.KernelSpec{
		Name: "bp_layerforward", Grid: count / d.block, Block: d.block,
		ScratchBytes: d.hid * d.block / 8,
		Func: func(t *device.Thread) {
			cta := t.CTA()
			if ctaAcc[cta] == nil {
				ctaAcc[cta] = make([]float32, d.hid)
			}
			i := base + t.Global()
			in := device.Ld(t, input, i)
			w := device.LdN(t, weights, i*d.hid, d.hid)
			for j := 0; j < d.hid; j++ {
				ctaAcc[cta][j] += in * w[j]
			}
			t.FLOP(2 * d.hid)
			t.ScratchOp(2)
			t.Sync()
			if t.Lane() == t.Block()-1 {
				device.StN(t, partial, (ctaBase+cta)*d.hid, ctaAcc[cta])
			}
		},
	}
}

// adjustKernel applies delta to the weight rows of the chunk.
func (d *bpData) adjustKernel(input, weights, delta *device.Buf[float32], base, count int) device.KernelSpec {
	return device.KernelSpec{
		Name: "bp_adjust_weights", Grid: count / d.block, Block: d.block,
		Func: func(t *device.Thread) {
			i := base + t.Global()
			in := device.Ld(t, input, i)
			dl := device.LdN(t, delta, 0, d.hid)
			w := device.LdN(t, weights, i*d.hid, d.hid)
			nw := make([]float32, d.hid)
			for j := 0; j < d.hid; j++ {
				nw[j] = w[j] + 0.3*dl[j]*in
			}
			t.FLOP(3 * d.hid)
			device.StN(t, weights, i*d.hid, nw)
		},
	}
}

// cpuReduce finishes the hidden-layer reduction, applies the activation,
// and computes the output deltas — the limited-TLP CPU stage.
func (d *bpData) cpuReduce(s *device.System, partial *device.Buf[float32], ctas int, deps ...*device.Handle) *device.Handle {
	return s.CPUTaskAsync(device.CPUTaskSpec{
		Name: "bp_reduce_deltas", Threads: 1,
		Func: func(c *device.CPUThread) {
			sums := make([]float64, d.hid)
			for cta := 0; cta < ctas; cta++ {
				p := device.LdN(c, partial, cta*d.hid, d.hid)
				for j, v := range p {
					sums[j] += float64(v)
				}
				c.FLOP(d.hid)
			}
			for j := 0; j < d.hid; j++ {
				h := float32(1.0 / (1.0 + math.Exp(-sums[j]/float64(d.n))))
				device.St(c, d.hidden, j, h)
				device.St(c, d.delta, j, (0.5-h)*h*(1-h))
				c.FLOP(8)
			}
		},
	}, deps...)
}

// Run executes backprop.
func (Backprop) Run(s *device.System, mode bench.Mode, size bench.Size) {
	d := bpSetup(s, size)
	ctas := d.n / d.block
	s.BeginROI()
	switch mode {
	case bench.ModeCopy, bench.ModeLimitedCopy:
		dIn, _ := device.ToDevice(s, d.input)
		dW, _ := device.ToDevice(s, d.weights)
		dDelta, _ := device.ToDevice(s, d.delta)
		s.Drain()
		s.Launch(d.forwardKernel(dIn, dW, d.partial, 0, d.n, 0))
		// The partial buffer is GPU-temporary; the CPU reads it back in the
		// copy version via an explicit D2H.
		part := d.partial
		if !s.Unified() {
			hPart := device.AllocBuf[float32](s, ctas*d.hid, "h_partials", device.Host)
			device.Memcpy(s, hPart, d.partial)
			part = hPart
		}
		s.Wait(d.cpuReduce(s, part, ctas))
		if !s.Unified() {
			device.Memcpy(s, dDelta, d.delta)
		}
		s.Launch(d.adjustKernel(dIn, dW, dDelta, 0, d.n))
		s.Wait(device.FromDevice(s, d.weights, dW))

	case bench.ModeAsyncStreams:
		const chunks = 4
		per := d.n / chunks
		dIn := device.AllocBuf[float32](s, d.n, "d_input", device.Device)
		dW := device.AllocBuf[float32](s, d.n*d.hid, "d_weights", device.Device)
		dDelta := device.AllocBuf[float32](s, d.hid, "d_delta", device.Device)
		hPart := device.AllocBuf[float32](s, ctas*d.hid, "h_partials", device.Host)
		// Forward pass: input+weight chunks stream in against the other
		// chunks' kernels and partial copies.
		fwd := s.Pipeline(device.PipelineSpec{
			Name: "bp_forward", Chunks: chunks,
			H2D: func(c int, deps ...*device.Handle) *device.Handle {
				hi := device.MemcpyRangeAsync(s, dIn, c*per, d.input, c*per, per, deps...)
				return device.MemcpyRangeAsync(s, dW, c*per*d.hid, d.weights, c*per*d.hid, per*d.hid, hi)
			},
			Kernel: func(c int, deps ...*device.Handle) *device.Handle {
				return s.LaunchAsync(d.forwardKernel(dIn, dW, d.partial, c*per, per, c*per/d.block), deps...)
			},
			D2H: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, hPart, c*per/d.block*d.hid, d.partial, c*per/d.block*d.hid, per/d.block*d.hid, deps...)
			},
		})
		red := d.cpuReduce(s, hPart, ctas, fwd)
		dc := device.MemcpyAsync(s, dDelta, d.delta, red)
		// Adjust pass: chunks are already resident, so only the kernels and
		// the weight writeback pipeline.
		adj := s.Pipeline(device.PipelineSpec{
			Name: "bp_adjust", Chunks: chunks,
			Kernel: func(c int, deps ...*device.Handle) *device.Handle {
				return s.LaunchAsync(d.adjustKernel(dIn, dW, dDelta, c*per, per), append(deps, dc)...)
			},
			D2H: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, d.weights, c*per*d.hid, dW, c*per*d.hid, per*d.hid, deps...)
			},
		})
		s.Wait(adj)

	case bench.ModeParallelChunked:
		const chunks = 4
		per := d.n / chunks
		// Producer chunks feed the CPU reducer through in-memory partials.
		var fwd []*device.Handle
		for c := 0; c < chunks; c++ {
			fwd = append(fwd, s.LaunchAsync(d.forwardKernel(d.input, d.weights, d.partial, c*per, per, c*per/d.block)))
		}
		// The CPU consumes each chunk's partials as they land.
		sums := make([]float64, d.hid)
		var consumed []*device.Handle
		for c := 0; c < chunks; c++ {
			cc := c
			consumed = append(consumed, s.CPUTaskAsync(device.CPUTaskSpec{
				Name: "bp_consume", Threads: 1,
				Func: func(cth *device.CPUThread) {
					for cta := 0; cta < per/d.block; cta++ {
						p := device.LdN(cth, d.partial, (cc*per/d.block+cta)*d.hid, d.hid)
						for j, v := range p {
							sums[j] += float64(v)
						}
						cth.FLOP(d.hid)
					}
				},
			}, fwd[c]))
		}
		deltas := s.CPUTaskAsync(device.CPUTaskSpec{
			Name: "bp_deltas", Threads: 1,
			Func: func(cth *device.CPUThread) {
				for j := 0; j < d.hid; j++ {
					h := float32(1.0 / (1.0 + math.Exp(-sums[j]/float64(d.n))))
					device.St(cth, d.hidden, j, h)
					device.St(cth, d.delta, j, (0.5-h)*h*(1-h))
					cth.FLOP(8)
				}
			},
		}, consumed...)
		var adj []*device.Handle
		for c := 0; c < chunks; c++ {
			adj = append(adj, s.LaunchAsync(d.adjustKernel(d.input, d.weights, d.delta, c*per, per), deltas))
		}
		for _, h := range adj {
			s.Wait(h)
		}
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(d.hidden.V), device.ChecksumF32(d.delta.V), device.ChecksumF32(d.weights.V))
}
