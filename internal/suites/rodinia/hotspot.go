package rodinia

import (
	"strconv"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// Hotspot is Rodinia's thermal simulation: an iterated 5-point stencil over
// the temperature grid with a power term, double-buffered on the device.
// Regular structure: one H2D per input, a kernel per iteration, one D2H.
type Hotspot struct{}

func init() { bench.Register(Hotspot{}) }

// Info describes hotspot.
func (Hotspot) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "hotspot",
		Desc:   "thermal 5-point stencil iteration",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams},
	}
}

// Run executes hotspot.
func (Hotspot) Run(s *device.System, mode bench.Mode, size bench.Size) {
	rows := bench.ScaleSide(256, size)
	cols := 512
	iters := 4
	block := 256

	temp := device.AllocBuf[float32](s, rows*cols, "temp", device.Host)
	power := device.AllocBuf[float32](s, rows*cols, "power", device.Host)
	workload.Grid(temp.V, cols, 11)
	workload.Grid(power.V, cols, 12)

	// step builds the stencil kernel over cells [base, base+count).
	step := func(a, b, dP *device.Buf[float32], base, count int) device.KernelSpec {
		return device.KernelSpec{
			Name: "hotspot_step", Grid: count / block, Block: block,
			Func: func(t *device.Thread) {
				i := base + t.Global()
				r, c := i/cols, i%cols
				v := device.Ld(t, a, i)
				n, so, e, w := v, v, v, v
				if r > 0 {
					n = device.Ld(t, a, i-cols)
				}
				if r < rows-1 {
					so = device.Ld(t, a, i+cols)
				}
				if c > 0 {
					e = device.Ld(t, a, i-1)
				}
				if c < cols-1 {
					w = device.Ld(t, a, i+1)
				}
				p := device.Ld(t, dP, i)
				t.FLOP(10)
				device.St(t, b, i, v+0.2*(n+so+e+w-4*v)+0.05*p)
			},
		}
	}

	s.BeginROI()
	if mode == bench.ModeAsyncStreams {
		// One H2D stream per row band uploads that band's temperature and
		// power; the first sweep runs per-band kernels, each fenced on its
		// own band's uploads and its halo neighbours' (the cross-stream
		// WaitEvent join), so interior bands compute while the rest still
		// stream in. Later sweeps touch the whole grid and chain normally.
		const bands = 4
		slab := rows / bands * cols
		dT := device.AllocBuf[float32](s, rows*cols, "d_temp", device.Device)
		dP := device.AllocBuf[float32](s, rows*cols, "d_power", device.Device)
		dT2 := device.AllocBuf[float32](s, rows*cols, "temp2", device.Device)
		events := make([]*device.Event, bands)
		for bd := 0; bd < bands; bd++ {
			up := s.NewStream("hotspot_h2d_" + strconv.Itoa(bd))
			device.CopyRange(up, dT, bd*slab, temp, bd*slab, slab)
			device.CopyRange(up, dP, bd*slab, power, bd*slab, slab)
			events[bd] = up.Record("band" + strconv.Itoa(bd))
		}
		deps := make([]*device.Handle, 0, bands)
		for bd := 0; bd < bands; bd++ {
			ks := s.NewStream("hotspot_k_" + strconv.Itoa(bd))
			for db := -1; db <= 1; db++ {
				if bd+db >= 0 && bd+db < bands {
					ks.WaitEvent(events[bd+db])
				}
			}
			deps = append(deps, ks.Launch(step(dT, dT2, dP, bd*slab, slab)))
		}
		src, dst := dT2, dT
		for it := 1; it < iters; it++ {
			deps = []*device.Handle{s.LaunchAsync(step(src, dst, dP, 0, rows*cols), deps...)}
			src, dst = dst, src
		}
		if src != dT {
			deps = []*device.Handle{device.MemcpyAsync(s, dT, src, deps...)}
		}
		s.Wait(device.MemcpyAsync(s, temp, dT, deps...))
	} else {
		dT, _ := device.ToDevice(s, temp)
		dP, _ := device.ToDevice(s, power)
		// Double buffer is GPU-temporary (device-only in both versions).
		dT2 := device.AllocBuf[float32](s, rows*cols, "temp2", device.Device)
		s.Drain()

		src, dst := dT, dT2
		for it := 0; it < iters; it++ {
			s.Launch(step(src, dst, dP, 0, rows*cols))
			src, dst = dst, src
		}
		// Result is in src after the final swap.
		if src != dT {
			device.Memcpy(s, dT, src)
		}
		s.Wait(device.FromDevice(s, temp, dT))
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(temp.V))
}
