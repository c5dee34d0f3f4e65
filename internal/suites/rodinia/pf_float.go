package rodinia

import (
	"math"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// ParticleFilterFloat is Rodinia's pf_float: the optimized particle filter
// that keeps positions in float arrays and hoists the weighted-mean
// estimate onto the GPU via per-CTA partial sums, leaving the CPU a small
// combine step per frame — the variant whose limited-copy version the
// paper observed cutting off-chip accesses sharply.
type ParticleFilterFloat struct{}

func init() { bench.Register(ParticleFilterFloat{}) }

// Info describes pf_float.
func (ParticleFilterFloat) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "pf_float",
		Desc:   "float particle filter with GPU-hoisted weighted mean",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true,
	}
}

// Run executes pf_float.
func (ParticleFilterFloat) Run(s *device.System, mode bench.Mode, size bench.Size) {
	particles := bench.ScaleN(8192, size)
	frames := 4
	imgSide := 512
	block := 256
	patch := 8
	ctas := particles / block

	img := device.AllocBuf[float32](s, imgSide*imgSide, "video_frame", device.Host)
	px := device.AllocBuf[float32](s, particles, "particles_x", device.Host)
	py := device.AllocBuf[float32](s, particles, "particles_y", device.Host)
	// Per-CTA partials: sum(w), sum(w*x), sum(w*y).
	partial := device.AllocBuf[float32](s, ctas*3, "pf_partials", device.Device)
	workload.Grid(img.V, imgSide, 93)
	rng := workload.RNG(94)
	for i := 0; i < particles; i++ {
		px.V[i] = rng.Float32() * float32(imgSide-patch)
		py.V[i] = rng.Float32() * float32(imgSide-patch)
	}

	s.BeginROI()
	dImg, _ := device.ToDevice(s, img)
	dPx, _ := device.ToDevice(s, px)
	dPy, _ := device.ToDevice(s, py)
	hPart := partial
	if !s.Unified() {
		hPart = device.AllocBuf[float32](s, ctas*3, "h_partials", device.Host)
	}
	s.Drain()

	for f := 0; f < frames; f++ {
		ctaAcc := make([][3]float64, ctas)
		// Fused likelihood + per-CTA weighted-sum kernel.
		s.Launch(device.KernelSpec{
			Name: "pf_likelihood_reduce", Grid: ctas, Block: block,
			ScratchBytes: 3 * block,
			Func: func(t *device.Thread) {
				i := t.Global()
				cta := t.CTA()
				x := device.Ld(t, dPx, i)
				y := device.Ld(t, dPy, i)
				var acc float32
				for p := 0; p < patch; p++ {
					v := device.Ld(t, dImg, (int(y)+p)*imgSide+int(x)+p)
					acc += (v - 0.5) * (v - 0.5)
				}
				w := float32(math.Exp(-float64(acc)))
				t.FLOP(3*patch + 4)
				ctaAcc[cta][0] += float64(w)
				ctaAcc[cta][1] += float64(w * x)
				ctaAcc[cta][2] += float64(w * y)
				t.ScratchOp(3)
				t.Sync()
				if t.Lane() == t.Block()-1 {
					device.StN(t, partial, cta*3, []float32{
						float32(ctaAcc[cta][0]), float32(ctaAcc[cta][1]), float32(ctaAcc[cta][2]),
					})
				}
			},
		})
		if !s.Unified() {
			device.Memcpy(s, hPart, partial)
		}
		// CPU: combine partials, re-seed particles around the estimate.
		var ex, ey float32
		s.CPUTask(device.CPUTaskSpec{
			Name: "pf_estimate", Threads: 1,
			Func: func(c *device.CPUThread) {
				var sw, sx, sy float64
				for cta := 0; cta < ctas; cta++ {
					p := device.LdN(c, hPart, cta*3, 3)
					sw += float64(p[0])
					sx += float64(p[1])
					sy += float64(p[2])
					c.FLOP(3)
				}
				if sw <= 0 {
					sw = 1
				}
				ex = float32(sx / sw)
				ey = float32(sy / sw)
				c.FLOP(2)
			},
		})
		// CPU: scatter particles around the estimate for the next frame.
		s.CPUTask(device.CPUTaskSpec{
			Name: "pf_rescatter", Threads: 1,
			Func: func(c *device.CPUThread) {
				lim := float32(imgSide - patch)
				for i := 0; i < particles; i++ {
					nx := ex + float32(rng.NormFloat64()*4)
					ny := ey + float32(rng.NormFloat64()*4)
					if nx < 0 {
						nx = 0
					} else if nx > lim {
						nx = lim
					}
					if ny < 0 {
						ny = 0
					} else if ny > lim {
						ny = lim
					}
					c.FLOP(6)
					device.St(c, px, i, nx)
					device.St(c, py, i, ny)
				}
			},
		})
		if !s.Unified() {
			device.Memcpy(s, dPx, px)
			device.Memcpy(s, dPy, py)
		}
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(px.V), device.ChecksumF32(py.V))
}
