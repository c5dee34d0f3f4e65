package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// LUD is Rodinia's blocked LU decomposition: per block step a diagonal
// kernel, a perimeter kernel, and a large internal-update kernel — kernels
// of widely varying size, the paper's example for compute migration of
// short-running kernels onto CPU cores.
type LUD struct{}

func init() { bench.Register(LUD{}) }

// Info describes lud.
func (LUD) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "lud",
		Desc:   "blocked LU decomposition (diag/perimeter/internal kernels)",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes lud.
func (LUD) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleSide(128, size)
	const B = 32
	nb := n / B

	a := device.AllocBuf[float32](s, n*n, "matrix", device.Host)
	workload.Matrix(a.V, 71)
	for i := 0; i < n; i++ {
		a.V[i*n+i] += float32(2 * n)
	}

	s.BeginROI()
	dA, _ := device.ToDevice(s, a)
	s.Drain()

	for step := 0; step < nb; step++ {
		k0 := step * B
		// Diagonal kernel: one small CTA factorizes the BxB diagonal block.
		s.Launch(device.KernelSpec{
			Name: "lud_diagonal", Grid: 1, Block: B,
			ScratchBytes: B * B * 4,
			Func: func(t *device.Thread) {
				r := k0 + t.Lane()
				device.LdN(t, dA, r*n+k0, B)
				// In-scratch factorization; lane 0 performs the functional
				// elimination once (thread generation is sequential).
				if t.Lane() == 0 {
					for kk := k0; kk < k0+B-1; kk++ {
						piv := dA.V[kk*n+kk]
						for rr := kk + 1; rr < k0+B; rr++ {
							m := dA.V[rr*n+kk] / piv
							dA.V[rr*n+kk] = m
							for cc := kk + 1; cc < k0+B; cc++ {
								dA.V[rr*n+cc] -= m * dA.V[kk*n+cc]
							}
						}
					}
				}
				t.ScratchOp(2 * B)
				t.FLOP(2 * B * B / 3)
				t.Sync()
				device.StN(t, dA, r*n+k0, dA.V[r*n+k0:r*n+k0+B])
			},
		})
		rem := nb - step - 1
		if rem == 0 {
			break
		}
		// Perimeter kernel: update the row and column panels.
		s.Launch(device.KernelSpec{
			Name: "lud_perimeter", Grid: rem, Block: 2 * B,
			ScratchBytes: 3 * B * B * 4,
			Func: func(t *device.Thread) {
				blk := k0 + B + t.CTA()*B
				half := t.Lane() < B
				if half {
					// Row panel: row t.Lane() of block (k0, blk).
					r := k0 + t.Lane()
					device.LdN(t, dA, r*n+blk, B)
					if t.Lane() == 0 {
						for kk := k0; kk < k0+B; kk++ {
							for rr := kk + 1; rr < k0+B; rr++ {
								m := dA.V[rr*n+kk]
								for cc := blk; cc < blk+B; cc++ {
									dA.V[rr*n+cc] -= m * dA.V[kk*n+cc]
								}
							}
						}
					}
					t.ScratchOp(B)
					t.FLOP(B * B)
					t.Sync()
					device.StN(t, dA, r*n+blk, dA.V[r*n+blk:r*n+blk+B])
				} else {
					// Column panel: row (blk + lane-B) of block (blk, k0).
					r := blk + t.Lane() - B
					device.LdN(t, dA, r*n+k0, B)
					if t.Lane() == B {
						for kk := k0; kk < k0+B; kk++ {
							piv := dA.V[kk*n+kk]
							for rr := blk; rr < blk+B; rr++ {
								m := dA.V[rr*n+kk] / piv
								dA.V[rr*n+kk] = m
								for cc := kk + 1; cc < k0+B; cc++ {
									dA.V[rr*n+cc] -= m * dA.V[kk*n+cc]
								}
							}
						}
					}
					t.ScratchOp(B)
					t.FLOP(B * B)
					t.Sync()
					device.StN(t, dA, r*n+k0, dA.V[r*n+k0:r*n+k0+B])
				}
			},
		})
		// Internal kernel: the big trailing-submatrix update.
		s.Launch(device.KernelSpec{
			Name: "lud_internal", Grid: rem * rem, Block: B,
			ScratchBytes: 2 * B * B * 4,
			Func: func(t *device.Thread) {
				bi := k0 + B + (t.CTA()/rem)*B
				bj := k0 + B + (t.CTA()%rem)*B
				r := bi + t.Lane()
				// Tiles: this thread's slice of the left panel row and the
				// top panel (loaded cooperatively, modelled per-thread).
				left := device.LdN(t, dA, r*n+k0, B)
				device.LdN(t, dA, (k0+t.Lane())*n+bj, B)
				row := device.LdN(t, dA, r*n+bj, B)
				nr := make([]float32, B)
				for c := 0; c < B; c++ {
					acc := row[c]
					for kk := 0; kk < B; kk++ {
						acc -= left[kk] * dA.V[(k0+kk)*n+bj+c]
					}
					nr[c] = acc
				}
				t.FLOP(2 * B * B)
				t.ScratchOp(2 * B)
				device.StN(t, dA, r*n+bj, nr)
			},
		})
	}
	s.Wait(device.FromDevice(s, a, dA))
	s.EndROI()
	s.AddResult(device.ChecksumF32(a.V))
}
