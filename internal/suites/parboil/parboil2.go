package parboil

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// CutCP is Parboil's cutoff Coulombic potential: atoms binned into cells; a
// thread per lattice point accumulates the potential of atoms in its
// neighbourhood bins. One big H2D, one compute-heavy kernel, one D2H.
type CutCP struct{}

func init() { bench.Register(CutCP{}) }

// Info describes cutcp.
func (CutCP) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "cutcp",
		Desc:   "cutoff Coulomb potential over a binned atom set",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams},
	}
}

// Run executes cutcp.
func (CutCP) Run(s *device.System, mode bench.Mode, size bench.Size) {
	side := bench.ScaleSide(64, size) // lattice side
	cellsPerSide := 16
	atomsPerCell := 4
	natoms := cellsPerSide * cellsPerSide * atomsPerCell
	block := 256
	points := side * side

	// Atoms as (x, y, charge) triples, binned row-major by cell.
	atoms := device.AllocBuf[float32](s, natoms*3, "atoms", device.Host)
	pot := device.AllocBuf[float32](s, points, "potential", device.Host)
	rng := workload.RNG(151)
	for c := 0; c < cellsPerSide*cellsPerSide; c++ {
		cx, cy := c%cellsPerSide, c/cellsPerSide
		for a := 0; a < atomsPerCell; a++ {
			i := (c*atomsPerCell + a) * 3
			atoms.V[i] = (float32(cx) + rng.Float32()) / float32(cellsPerSide)
			atoms.V[i+1] = (float32(cy) + rng.Float32()) / float32(cellsPerSide)
			atoms.V[i+2] = rng.Float32()
		}
	}

	// potential is the per-thread kernel body (shared by the classic launch
	// and the persistent-kernel organization, whose global CTA indexing
	// matches the one-shot launch exactly).
	potential := func(dAtoms, dPot *device.Buf[float32]) func(t *device.Thread) {
		return func(t *device.Thread) {
			i := t.Global()
			py, px := i/side, i%side
			x := float32(px) / float32(side)
			y := float32(py) / float32(side)
			cellX, cellY := int(x*float32(cellsPerSide)), int(y*float32(cellsPerSide))
			var acc float32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					cx, cy := cellX+dx, cellY+dy
					if cx < 0 || cy < 0 || cx >= cellsPerSide || cy >= cellsPerSide {
						continue
					}
					cell := cy*cellsPerSide + cx
					av := device.LdN(t, dAtoms, cell*atomsPerCell*3, atomsPerCell*3)
					for a := 0; a < atomsPerCell; a++ {
						ax, ay, q := av[a*3], av[a*3+1], av[a*3+2]
						d2 := (ax-x)*(ax-x) + (ay-y)*(ay-y) + 1e-4
						if d2 < 0.02 { // cutoff
							acc += q / d2
						}
					}
					t.FLOP(8 * atomsPerCell)
					t.ScratchOp(1)
				}
			}
			device.St(t, dPot, i, acc)
		}
	}

	s.BeginROI()
	if mode == bench.ModeAsyncStreams {
		// Persistent-kernel organization: one resident kernel is launched
		// (one host launch claim), then fed lattice-point batches whose
		// potentials stream back per batch — dispatch overhead amortized
		// across every chunk, D2H overlapped with the remaining compute.
		ctas := points / block
		feeds := 4
		if ctas < feeds {
			feeds = ctas
		}
		per := ctas / feeds
		dAtoms := device.AllocBuf[float32](s, natoms*3, "d_atoms", device.Device)
		dPot := device.AllocBuf[float32](s, points, "d_potential", device.Device)
		aUp := device.MemcpyAsync(s, dAtoms, atoms)
		pk := s.LaunchPersistent(device.PersistentKernelSpec{
			Name: "cutcp_potential", Block: block,
			ScratchBytes: 9 * atomsPerCell * 3 * 4,
			Func:         potential(dAtoms, dPot),
		}, aUp)
		outs := make([]*device.Handle, 0, feeds)
		for c := 0; c < feeds; c++ {
			nc := per
			if c == feeds-1 {
				nc = ctas - per*(feeds-1)
			}
			base := c * per * block
			h := pk.Feed(nc)
			outs = append(outs, device.MemcpyRangeAsync(s, pot, base, dPot, base, nc*block, h))
		}
		pk.Close()
		s.Wait(pk.Done())
		for _, h := range outs {
			s.Wait(h)
		}
	} else {
		dAtoms, _ := device.ToDevice(s, atoms)
		dPot, _ := device.ToDevice(s, pot)
		s.Drain()

		s.Launch(device.KernelSpec{
			Name: "cutcp_potential", Grid: points / block, Block: block,
			ScratchBytes: 9 * atomsPerCell * 3 * 4,
			Func:         potential(dAtoms, dPot),
		})
		s.Wait(device.FromDevice(s, pot, dPot))
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(pot.V))
}

// LBM is Parboil's lattice-Boltzmann skeleton: per iteration every cell
// streams its neighbours' distribution values and applies a collision,
// double-buffering between two large device grids — a bandwidth hog.
type LBM struct{}

func init() { bench.Register(LBM{}) }

// Info describes lbm.
func (LBM) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "lbm",
		Desc:   "lattice-Boltzmann stream+collide over a 2-D grid",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes lbm.
func (LBM) Run(s *device.System, mode bench.Mode, size bench.Size) {
	side := bench.ScaleSide(128, size)
	const dirs = 8
	iters := 2
	block := 256
	cells := side * side

	grid := device.AllocBuf[float32](s, cells*dirs, "lbm_grid", device.Host)
	workload.Points(grid.V, 161)

	s.BeginROI()
	dA, _ := device.ToDevice(s, grid)
	dB := device.AllocBuf[float32](s, cells*dirs, "lbm_tmp", device.Device)
	s.Drain()

	dxs := [dirs]int{1, -1, 0, 0, 1, 1, -1, -1}
	dys := [dirs]int{0, 0, 1, -1, 1, -1, 1, -1}
	src, dst := dA, dB
	for it := 0; it < iters; it++ {
		a, b := src, dst
		s.Launch(device.KernelSpec{
			Name: "lbm_stream_collide", Grid: cells / block, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				y, x := i/side, i%side
				var rho float32
				vals := make([]float32, dirs)
				for d := 0; d < dirs; d++ {
					sx := (x - dxs[d] + side) % side
					sy := (y - dys[d] + side) % side
					vals[d] = device.Ld(t, a, (sy*side+sx)*dirs+d)
					rho += vals[d]
				}
				t.FLOP(3 * dirs)
				eq := rho / dirs
				out := make([]float32, dirs)
				for d := 0; d < dirs; d++ {
					out[d] = vals[d] + 0.6*(eq-vals[d])
				}
				t.FLOP(2 * dirs)
				device.StN(t, b, i*dirs, out)
			},
		})
		src, dst = dst, src
	}
	if src != dA {
		device.Memcpy(s, dA, src)
	}
	s.Wait(device.FromDevice(s, grid, dA))
	s.EndROI()
	s.AddResult(device.ChecksumF32(grid.V))
}
