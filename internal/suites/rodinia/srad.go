package rodinia

import (
	"math"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// SRAD is Rodinia's speckle-reducing anisotropic diffusion: per iteration a
// CPU statistics phase over an image ROI window, a gradient/coefficient
// kernel writing four large GPU-temporary arrays, and an update kernel.
// Those never-CPU-touched temporaries are what makes srad the paper's page-
// fault cautionary tale on the heterogeneous processor (~7x GPU slowdown):
// thousands of would-be-parallel first-touch writes serialize on the CPU
// fault handler, which also clears pages, shifting accesses to the CPU.
type SRAD struct{}

func init() { bench.Register(SRAD{}) }

// Info describes srad.
func (SRAD) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "srad",
		Desc:   "speckle-reducing anisotropic diffusion with GPU-temp arrays",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes srad.
func (SRAD) Run(s *device.System, mode bench.Mode, size bench.Size) {
	rows := bench.ScaleSide(512, size)
	cols := 512
	iters := 3
	block := 256
	cells := rows * cols

	img := device.AllocBuf[float32](s, cells, "image", device.Host)
	workload.Grid(img.V, cols, 41)

	s.BeginROI()
	dImg, _ := device.ToDevice(s, img)
	// Four direction-coefficient temporaries, GPU-only in both versions.
	dN := device.AllocBuf[float32](s, cells, "dN", device.Device)
	dS := device.AllocBuf[float32](s, cells, "dS", device.Device)
	dE := device.AllocBuf[float32](s, cells, "dE", device.Device)
	dC := device.AllocBuf[float32](s, cells, "coeff", device.Device)
	s.Drain()

	q0 := float32(0)
	for it := 0; it < iters; it++ {
		// CPU statistics over the ROI window (Rodinia computes q0sqr on the
		// host each iteration).
		if !s.Unified() {
			device.Memcpy(s, img, dImg)
		}
		s.CPUTask(device.CPUTaskSpec{
			Name: "srad_stats", Threads: 1,
			Func: func(c *device.CPUThread) {
				var sum, sum2 float64
				win := 64
				for r := 0; r < win; r++ {
					row := device.LdN(c, img, r*cols, win)
					for _, v := range row {
						sum += float64(v)
						sum2 += float64(v) * float64(v)
					}
					c.FLOP(2 * win)
				}
				mean := sum / float64(win*win)
				vr := sum2/float64(win*win) - mean*mean
				q0 = float32(vr / (mean*mean + 1e-9))
				c.FLOP(6)
			},
		})
		// Kernel 1: gradients and diffusion coefficients into temporaries.
		s.Launch(device.KernelSpec{
			Name: "srad_grad", Grid: cells / block, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				r, cl := i/cols, i%cols
				v := device.Ld(t, dImg, i)
				up, dn, rt := v, v, v
				if r > 0 {
					up = device.Ld(t, dImg, i-cols)
				}
				if r < rows-1 {
					dn = device.Ld(t, dImg, i+cols)
				}
				if cl < cols-1 {
					rt = device.Ld(t, dImg, i+1)
				}
				g2 := (up-v)*(up-v) + (dn-v)*(dn-v) + (rt-v)*(rt-v)
				den := 1 + g2/(v*v+1e-9) + q0
				co := float32(1.0 / float64(den))
				if co < 0 {
					co = 0
				} else if co > 1 {
					co = 1
				}
				t.FLOP(16)
				device.St(t, dN, i, up-v)
				device.St(t, dS, i, dn-v)
				device.St(t, dE, i, rt-v)
				device.St(t, dC, i, co)
			},
		})
		// Kernel 2: diffusion update of the image in place.
		s.Launch(device.KernelSpec{
			Name: "srad_update", Grid: cells / block, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				v := device.Ld(t, dImg, i)
				cN := device.Ld(t, dN, i)
				cS := device.Ld(t, dS, i)
				cE := device.Ld(t, dE, i)
				co := device.Ld(t, dC, i)
				nv := v + 0.25*co*(cN+cS+cE)
				if math.IsNaN(float64(nv)) {
					nv = v
				}
				t.FLOP(6)
				device.St(t, dImg, i, nv)
			},
		})
	}
	s.Wait(device.FromDevice(s, img, dImg))
	s.EndROI()
	s.AddResult(device.ChecksumF32(img.V))
}
