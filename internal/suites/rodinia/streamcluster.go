package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
)

// Streamcluster is Rodinia's online clustering (the paper's strmclstr):
// repeated candidate-center gain kernels on the GPU with CPU open/close
// decisions between them, copying the gain array back every round.
type Streamcluster struct{}

func init() { bench.Register(Streamcluster{}) }

// Info describes streamcluster.
func (Streamcluster) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "streamcluster",
		Desc:   "online clustering: per-candidate gain kernels + CPU decisions",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams, bench.ModeParallelChunked},
	}
}

type scDims struct{ n, d, rounds, block int }

func scSize(size bench.Size) scDims {
	return scDims{n: bench.ScaleN(16384, size), d: 32, rounds: 6, block: 256}
}

type scData struct {
	scDims
	pts    *device.Buf[float32] // [i*d+j], line-aligned rows
	curDst *device.Buf[float32] // current assignment cost per point
	gain   *device.Buf[float32]
}

func scSetup(s *device.System, size bench.Size) *scData {
	dm := scSize(size)
	d := &scData{scDims: dm}
	d.pts = device.AllocBuf[float32](s, dm.n*dm.d, "points", device.Host)
	d.curDst = device.AllocBuf[float32](s, dm.n, "cur_dist", device.Host)
	d.gain = device.AllocBuf[float32](s, dm.n, "gain", device.Host)
	fillPoints(d.pts.V)
	for i := range d.curDst.V {
		d.curDst.V[i] = 1e3
	}
	return d
}

// gainKernel computes each point's gain if candidate cand were opened.
func (d *scData) gainKernel(pts, curDst, gain *device.Buf[float32], cand, base, count int) device.KernelSpec {
	return device.KernelSpec{
		Name: "sc_pgain", Grid: count / d.block, Block: d.block,
		Func: func(t *device.Thread) {
			i := base + t.Global()
			p := device.LdN(t, pts, i*d.d, d.d)
			c := device.LdN(t, pts, cand*d.d, d.d)
			var dist float32
			for j := 0; j < d.d; j++ {
				df := p[j] - c[j]
				dist += df * df
			}
			t.FLOP(3 * d.d)
			cur := device.Ld(t, curDst, i)
			device.St(t, gain, i, cur-dist)
		},
	}
}

// cpuDecide reduces the gains and, if opening wins, reassigns points.
func (d *scData) cpuDecide(s *device.System, gain, curDst *device.Buf[float32], deps ...*device.Handle) *device.Handle {
	return s.CPUTaskAsync(device.CPUTaskSpec{
		Name: "sc_decide", Threads: 1,
		Func: func(c *device.CPUThread) {
			var total float64
			for i := 0; i < d.n; i++ {
				total += float64(device.Ld(c, gain, i))
				c.FLOP(1)
			}
			if total > 0 {
				for i := 0; i < d.n; i++ {
					g := device.Ld(c, gain, i)
					if g > 0 {
						cur := device.Ld(c, curDst, i)
						device.St(c, curDst, i, cur-g)
					}
					c.FLOP(2)
				}
			}
		},
	}, deps...)
}

// Run executes streamcluster.
func (Streamcluster) Run(s *device.System, mode bench.Mode, size bench.Size) {
	d := scSetup(s, size)
	s.BeginROI()
	switch mode {
	case bench.ModeCopy, bench.ModeLimitedCopy:
		dPts, _ := device.ToDevice(s, d.pts)
		dCur, _ := device.ToDevice(s, d.curDst)
		dGain, _ := device.ToDevice(s, d.gain)
		s.Drain()
		for r := 0; r < d.rounds; r++ {
			if !s.Unified() {
				device.Memcpy(s, dCur, d.curDst)
			}
			s.Launch(d.gainKernel(dPts, dCur, dGain, r*37%d.n, 0, d.n))
			if !s.Unified() {
				device.Memcpy(s, d.gain, dGain)
			}
			s.Wait(d.cpuDecide(s, d.gain, d.curDst))
		}

	case bench.ModeAsyncStreams:
		const chunks = 4
		per := d.n / chunks
		dPts := device.AllocBuf[float32](s, d.n*d.d, "d_points", device.Device)
		dCur := device.AllocBuf[float32](s, d.n, "d_cur", device.Device)
		dGain := device.AllocBuf[float32](s, d.n, "d_gain", device.Device)
		ptsUp := device.MemcpyAsync(s, dPts, d.pts)
		var prev *device.Handle
		for r := 0; r < d.rounds; r++ {
			roundDeps := []*device.Handle{ptsUp}
			if prev != nil {
				roundDeps = append(roundDeps, prev)
			}
			rr := r
			pipe := s.Pipeline(device.PipelineSpec{
				Name: "sc_round", Chunks: chunks,
				H2D: func(c int, deps ...*device.Handle) *device.Handle {
					return device.MemcpyRangeAsync(s, dCur, c*per, d.curDst, c*per, per,
						append(deps, roundDeps...)...)
				},
				Kernel: func(c int, deps ...*device.Handle) *device.Handle {
					return s.LaunchAsync(d.gainKernel(dPts, dCur, dGain, rr*37%d.n, c*per, per), deps...)
				},
				D2H: func(c int, deps ...*device.Handle) *device.Handle {
					return device.MemcpyRangeAsync(s, d.gain, c*per, dGain, c*per, per, deps...)
				},
			})
			prev = d.cpuDecide(s, d.gain, d.curDst, pipe)
		}
		s.Wait(prev)

	case bench.ModeParallelChunked:
		const chunks = 4
		per := d.n / chunks
		var prev *device.Handle
		for r := 0; r < d.rounds; r++ {
			var parts []*device.Handle
			totals := make([]float64, chunks)
			for c := 0; c < chunks; c++ {
				var deps []*device.Handle
				if prev != nil {
					deps = append(deps, prev)
				}
				k := s.LaunchAsync(d.gainKernel(d.pts, d.curDst, d.gain, r*37%d.n, c*per, per), deps...)
				cc := c
				parts = append(parts, s.CPUTaskAsync(device.CPUTaskSpec{
					Name: "sc_partial_sum", Threads: 1,
					Func: func(cth *device.CPUThread) {
						var tt float64
						for i := cc * per; i < (cc+1)*per; i++ {
							tt += float64(device.Ld(cth, d.gain, i))
							cth.FLOP(1)
						}
						totals[cc] = tt
					},
				}, k))
			}
			prev = s.CPUTaskAsync(device.CPUTaskSpec{
				Name: "sc_apply", Threads: 4,
				Func: func(cth *device.CPUThread) {
					var total float64
					for _, t := range totals {
						total += t
					}
					if total <= 0 {
						return
					}
					lo := cth.TID() * d.n / cth.Threads()
					hi := (cth.TID() + 1) * d.n / cth.Threads()
					for i := lo; i < hi; i++ {
						g := device.Ld(cth, d.gain, i)
						if g > 0 {
							cur := device.Ld(cth, d.curDst, i)
							device.St(cth, d.curDst, i, cur-g)
						}
						cth.FLOP(2)
					}
				},
			}, parts...)
		}
		s.Wait(prev)
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(d.curDst.V))
}
