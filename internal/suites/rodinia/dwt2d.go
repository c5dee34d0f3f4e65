package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// DWT2D is Rodinia's 2-D discrete wavelet transform: two GPU filter passes
// followed by a substantial single-threaded CPU quantization/packaging
// phase. CPU execution dominates run time, making dwt2d the paper's example
// of a benchmark whose gains come from migrating CPU work to the idle GPU
// (Figure 8).
type DWT2D struct{}

func init() { bench.Register(DWT2D{}) }

// Info describes dwt2d.
func (DWT2D) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "dwt2d",
		Desc:   "2-D wavelet transform with CPU-heavy post-processing",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes dwt2d.
func (DWT2D) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleSide(384, size) // image side
	block := 256
	cells := n * n

	img := device.AllocBuf[float32](s, cells, "image", device.Host)
	out := device.AllocBuf[int32](s, cells, "coeffs_q", device.Host)
	workload.Grid(img.V, n, 81)

	s.BeginROI()
	dImg, _ := device.ToDevice(s, img)
	dTmp := device.AllocBuf[float32](s, cells, "dwt_tmp", device.Device)
	s.Drain()

	// Horizontal lifting pass: thread per pixel pair along rows.
	s.Launch(device.KernelSpec{
		Name: "dwt_horizontal", Grid: cells / 2 / block, Block: block,
		Func: func(t *device.Thread) {
			i := t.Global()
			r, c2 := i/(n/2), (i%(n/2))*2
			a := device.Ld(t, dImg, r*n+c2)
			b := device.Ld(t, dImg, r*n+c2+1)
			t.FLOP(4)
			device.St(t, dTmp, r*n+c2/2, (a+b)/2)     // approx
			device.St(t, dTmp, r*n+n/2+c2/2, (a-b)/2) // detail
		},
	})
	// Vertical lifting pass back into the image buffer.
	s.Launch(device.KernelSpec{
		Name: "dwt_vertical", Grid: cells / 2 / block, Block: block,
		Func: func(t *device.Thread) {
			i := t.Global()
			c, r2 := i/(n/2), (i%(n/2))*2
			a := device.Ld(t, dTmp, r2*n+c)
			b := device.Ld(t, dTmp, (r2+1)*n+c)
			t.FLOP(4)
			device.St(t, dImg, (r2/2)*n+c, (a+b)/2)
			device.St(t, dImg, (n/2+r2/2)*n+c, (a-b)/2)
		},
	})
	s.Wait(device.FromDevice(s, img, dImg))

	// CPU: single-threaded quantization + zig-zag packaging — the heavy,
	// limited-TLP stage that dominates this benchmark's run time.
	s.CPUTask(device.CPUTaskSpec{
		Name: "dwt_quantize_pack", Threads: 1,
		Func: func(c *device.CPUThread) {
			for r := 0; r < n; r++ {
				row := device.LdN(c, img, r*n, n)
				for cl, v := range row {
					q := int32(v * 64)
					// Run-length-style branching work per coefficient.
					if q > 16 {
						q = 16 + (q-16)/2
					} else if q < -16 {
						q = -16 + (q+16)/2
					}
					c.FLOP(6)
					device.St(c, out, r*n+cl, q)
				}
			}
		},
	})
	s.EndROI()
	s.AddResult(device.ChecksumI32(out.V), device.ChecksumF32(img.V))
}
