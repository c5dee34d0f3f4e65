package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// Heartwall is Rodinia's ultrasound-tracking benchmark reduced to its
// pipeline skeleton: per video frame a GPU kernel correlates a template
// patch around every tracked sample point, writing large per-point
// convolution buffers that live only on the GPU — with srad and pr_spmv it
// is one of the paper's three page-fault victims on the heterogeneous
// processor — followed by a serial CPU position-update phase.
type Heartwall struct{}

func init() { bench.Register(Heartwall{}) }

// Info describes heartwall.
func (Heartwall) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "heartwall",
		Desc:   "ultrasound point tracking with large GPU-temp buffers",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes heartwall.
func (Heartwall) Run(s *device.System, mode bench.Mode, size bench.Size) {
	npts := bench.ScaleN(256, size)
	frames := 3
	imgSide := 512
	patch := 16
	convLen := patch * patch // per-point correlation surface
	block := 64

	img := device.AllocBuf[float32](s, imgSide*imgSide, "frame", device.Host)
	ptx := device.AllocBuf[int32](s, npts, "point_x", device.Host)
	pty := device.AllocBuf[int32](s, npts, "point_y", device.Host)
	workload.Grid(img.V, imgSide, 131)
	rng := workload.RNG(132)
	for i := 0; i < npts; i++ {
		ptx.V[i] = int32(rng.Intn(imgSide - 2*patch))
		pty.V[i] = int32(rng.Intn(imgSide - 2*patch))
	}

	s.BeginROI()
	dImg, _ := device.ToDevice(s, img)
	dPx, _ := device.ToDevice(s, ptx)
	dPy, _ := device.ToDevice(s, pty)
	// The big convolution surfaces never touch the CPU.
	dConv := device.AllocBuf[float32](s, npts*convLen, "conv_surfaces", device.Device)
	dBest := device.AllocBuf[int32](s, npts, "best_offset", device.Device)
	s.Drain()

	for f := 0; f < frames; f++ {
		// Kernel: one CTA per tracked point; each thread correlates one
		// template row against the image patch and writes its slice of the
		// correlation surface.
		s.Launch(device.KernelSpec{
			Name: "hw_correlate", Grid: npts, Block: block,
			ScratchBytes: convLen * 4,
			Func: func(t *device.Thread) {
				p := t.CTA()
				x := int(device.Ld(t, dPx, p))
				y := int(device.Ld(t, dPy, p))
				lane := t.Lane()
				// Each lane handles a strip of the correlation surface.
				per := convLen / t.Block()
				strip := make([]float32, per)
				for k := 0; k < per; k++ {
					idx := lane*per + k
					dy, dx := idx/patch, idx%patch
					v := device.Ld(t, dImg, (y+dy)*imgSide+x+dx)
					strip[k] = v * 0.5
				}
				t.FLOP(3 * per)
				t.ScratchOp(2)
				device.StN(t, dConv, p*convLen+lane*per, strip)
				t.Sync()
				if lane == 0 {
					// Reduce the surface to the best offset.
					best, bestV := 0, float32(-1e30)
					surf := device.LdN(t, dConv, p*convLen, convLen)
					for i, v := range surf {
						if v > bestV {
							bestV, best = v, i
						}
					}
					t.FLOP(convLen)
					device.St(t, dBest, p, int32(best))
				}
			},
		})
		// CPU: serial position update from the best offsets.
		hBest := dBest
		if !s.Unified() {
			hBest = device.AllocBuf[int32](s, npts, "h_best", device.Host)
			device.Memcpy(s, hBest, dBest)
			device.Memcpy(s, ptx, dPx)
			device.Memcpy(s, pty, dPy)
		}
		s.CPUTask(device.CPUTaskSpec{
			Name: "hw_update", Threads: 1,
			Func: func(c *device.CPUThread) {
				for p := 0; p < npts; p++ {
					b := int(device.LdDep(c, hBest, p))
					x := device.Ld(c, ptx, p) + int32(b%patch) - int32(patch/2)
					y := device.Ld(c, pty, p) + int32(b/patch) - int32(patch/2)
					if x < 0 {
						x = 0
					}
					if x > int32(imgSide-2*patch) {
						x = int32(imgSide - 2*patch)
					}
					if y < 0 {
						y = 0
					}
					if y > int32(imgSide-2*patch) {
						y = int32(imgSide - 2*patch)
					}
					c.FLOP(6)
					device.St(c, ptx, p, x)
					device.St(c, pty, p, y)
				}
			},
		})
		if !s.Unified() {
			device.Memcpy(s, dPx, ptx)
			device.Memcpy(s, dPy, pty)
		}
	}
	s.EndROI()
	s.AddResult(device.ChecksumI32(ptx.V), device.ChecksumI32(pty.V))
}
