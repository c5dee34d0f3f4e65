package rodinia

import (
	"math"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// ParticleFilter is Rodinia's pf_naive: per video frame a serial CPU
// propagation step, a GPU likelihood kernel over all particles (scattered
// image reads), and a serial CPU resampling step — small copies in both
// directions every frame.
type ParticleFilter struct{}

func init() { bench.Register(ParticleFilter{}) }

// Info describes pf_naive.
func (ParticleFilter) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "pf_naive",
		Desc:   "particle filter tracking: CPU propagate / GPU likelihood / CPU resample",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true,
	}
}

// Run executes pf_naive.
func (ParticleFilter) Run(s *device.System, mode bench.Mode, size bench.Size) {
	particles := bench.ScaleN(8192, size)
	frames := 4
	imgSide := 512
	block := 256
	patch := 8

	img := device.AllocBuf[float32](s, imgSide*imgSide, "video_frame", device.Host)
	px := device.AllocBuf[float32](s, particles, "particles_x", device.Host)
	py := device.AllocBuf[float32](s, particles, "particles_y", device.Host)
	like := device.AllocBuf[float32](s, particles, "likelihood", device.Host)
	workload.Grid(img.V, imgSide, 91)
	rng := workload.RNG(92)
	for i := 0; i < particles; i++ {
		px.V[i] = rng.Float32() * float32(imgSide-patch)
		py.V[i] = rng.Float32() * float32(imgSide-patch)
	}

	s.BeginROI()
	dImg, _ := device.ToDevice(s, img)
	var dPx, dPy, dLike *device.Buf[float32]
	if s.Unified() {
		dPx, dPy, dLike = px, py, like
	} else {
		dPx = device.AllocBuf[float32](s, particles, "d_px", device.Device)
		dPy = device.AllocBuf[float32](s, particles, "d_py", device.Device)
		dLike = device.AllocBuf[float32](s, particles, "d_like", device.Device)
	}
	s.Drain()

	for f := 0; f < frames; f++ {
		// CPU: propagate particles (serial; dependent RNG chain).
		s.CPUTask(device.CPUTaskSpec{
			Name: "pf_propagate", Threads: 1,
			Func: func(c *device.CPUThread) {
				for i := 0; i < particles; i++ {
					x := device.Ld(c, px, i) + float32(rng.NormFloat64())
					y := device.Ld(c, py, i) + float32(rng.NormFloat64())
					if x < 0 {
						x = 0
					} else if x > float32(imgSide-patch) {
						x = float32(imgSide - patch)
					}
					if y < 0 {
						y = 0
					} else if y > float32(imgSide-patch) {
						y = float32(imgSide - patch)
					}
					c.FLOP(6)
					device.St(c, px, i, x)
					device.St(c, py, i, y)
				}
			},
		})
		if !s.Unified() {
			device.Memcpy(s, dPx, px)
			device.Memcpy(s, dPy, py)
		}
		// GPU: likelihood over an image patch per particle — scattered.
		s.Launch(device.KernelSpec{
			Name: "pf_likelihood", Grid: particles / block, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				x := int(device.Ld(t, dPx, i))
				y := int(device.Ld(t, dPy, i))
				var acc float32
				for p := 0; p < patch; p++ {
					v := device.Ld(t, dImg, (y+p)*imgSide+x+p)
					acc += (v - 0.5) * (v - 0.5)
				}
				t.FLOP(3 * patch)
				device.St(t, dLike, i, float32(math.Exp(-float64(acc))))
			},
		})
		if !s.Unified() {
			device.Memcpy(s, like, dLike)
		}
		// CPU: normalize and resample (serial, dependent loads).
		s.CPUTask(device.CPUTaskSpec{
			Name: "pf_resample", Threads: 1,
			Func: func(c *device.CPUThread) {
				var sum float64
				for i := 0; i < particles; i++ {
					sum += float64(device.Ld(c, like, i))
					c.FLOP(1)
				}
				if sum <= 0 {
					sum = 1
				}
				// Systematic resampling walk — pointer-chase-like.
				var cum float64
				j := 0
				for i := 0; i < particles; i++ {
					u := (float64(i) + 0.5) / float64(particles)
					for cum < u*sum && j < particles-1 {
						cum += float64(device.LdDep(c, like, j))
						j++
					}
					device.St(c, px, i, device.Ld(c, px, j))
					device.St(c, py, i, device.Ld(c, py, j))
					c.FLOP(4)
				}
			},
		})
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(px.V), device.ChecksumF32(py.V))
}
