package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// CFD is Rodinia's euler3d solver reduced to its pipeline skeleton: per
// iteration a flux kernel gathers each element's neighbours across an
// unstructured mesh (irregular reads) and a time-step kernel applies the
// fluxes. Variables move to the GPU once and back once.
type CFD struct{}

func init() { bench.Register(CFD{}) }

// Info describes cfd.
func (CFD) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "cfd",
		Desc:   "unstructured-mesh Euler solver (flux + time-step kernels)",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes cfd.
func (CFD) Run(s *device.System, mode bench.Mode, size bench.Size) {
	nel := bench.ScaleN(16384, size)
	const nvar = 5 // density, 3x momentum, energy
	const nnb = 4  // neighbours per element
	iters := 3
	block := 256

	vars := device.AllocBuf[float32](s, nel*nvar, "variables", device.Host)
	nb := device.AllocBuf[int32](s, nel*nnb, "neighbors", device.Host)
	workload.Points(vars.V, 121)
	rng := workload.RNG(122)
	for i := range nb.V {
		nb.V[i] = int32(rng.Intn(nel))
	}

	s.BeginROI()
	dVars, _ := device.ToDevice(s, vars)
	dNb, _ := device.ToDevice(s, nb)
	// Fluxes are GPU-temporary.
	dFlux := device.AllocBuf[float32](s, nel*nvar, "fluxes", device.Device)
	s.Drain()

	for it := 0; it < iters; it++ {
		s.Launch(device.KernelSpec{
			Name: "cfd_compute_flux", Grid: nel / block, Block: block,
			Func: func(t *device.Thread) {
				e := t.Global()
				own := device.LdN(t, dVars, e*nvar, nvar)
				acc := make([]float32, nvar)
				copy(acc, own)
				for k := 0; k < nnb; k++ {
					j := int(device.Ld(t, dNb, e*nnb+k))
					nbv := device.LdN(t, dVars, j*nvar, nvar) // irregular gather
					for v := 0; v < nvar; v++ {
						acc[v] += 0.1 * (nbv[v] - own[v])
					}
				}
				t.FLOP(12 * nnb)
				device.StN(t, dFlux, e*nvar, acc)
			},
		})
		s.Launch(device.KernelSpec{
			Name: "cfd_time_step", Grid: nel / block, Block: block,
			Func: func(t *device.Thread) {
				e := t.Global()
				f := device.LdN(t, dFlux, e*nvar, nvar)
				nw := make([]float32, nvar)
				for v := 0; v < nvar; v++ {
					nw[v] = 0.9*f[v] + 0.01
				}
				t.FLOP(2 * nvar)
				device.StN(t, dVars, e*nvar, nw)
			},
		})
	}
	s.Wait(device.FromDevice(s, vars, dVars))
	s.EndROI()
	s.AddResult(device.ChecksumF32(vars.V))
}
