package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// NW is Rodinia's Needleman-Wunsch sequence alignment: a wavefront of
// 16x16-block kernels over the score matrix, one kernel per anti-diagonal —
// the many-to-few dependency pattern the paper flags as hard to pipeline.
type NW struct{}

func init() { bench.Register(NW{}) }

// Info describes nw. It is the Rodinia benchmark whose inter-stage
// dependencies block pipeline parallelization in Table II.
func (NW) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "nw",
		Desc:   "Needleman-Wunsch wavefront DP alignment",
		PCComm: true, PipeParal: false, Regular: true,
	}
}

// Run executes nw.
func (NW) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleSide(512, size) // matrix side
	const B = 16
	nb := n / B

	seq1 := make([]int32, n)
	workload.Sequence(seq1, 61)
	seq2 := make([]int32, n)
	workload.Sequence(seq2, 62)
	ref := device.AllocBuf[int32](s, n*n, "reference", device.Host)
	score := device.AllocBuf[int32](s, (n+1)*(n+1), "score", device.Host)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if seq1[r] == seq2[c] {
				ref.V[r*n+c] = 3
			} else {
				ref.V[r*n+c] = -2
			}
		}
	}
	for i := 0; i <= n; i++ {
		score.V[i] = int32(-i)
		score.V[i*(n+1)] = int32(-i)
	}

	s.BeginROI()
	dRef, _ := device.ToDevice(s, ref)
	dScore, _ := device.ToDevice(s, score)
	s.Drain()

	stride := n + 1
	blockKernel := func(diag, blocks, firstBr int) device.KernelSpec {
		return device.KernelSpec{
			Name: "nw_diagonal", Grid: blocks, Block: B,
			ScratchBytes: (B + 1) * (B + 1) * 4,
			Func: func(t *device.Thread) {
				br := firstBr + t.CTA()
				bc := diag - br
				r0, c0 := br*B, bc*B
				// Each thread owns one row of the block; the block's cells
				// fill over internal anti-diagonals with barriers between.
				tr := r0 + t.Lane()
				refRow := device.LdN(t, dRef, tr*n+c0, B)
				// Left halo cell for this row and top halo for lane 0.
				device.Ld(t, dScore, (tr+1)*stride+c0)
				if t.Lane() == 0 {
					device.LdN(t, dScore, r0*stride+c0, B+1)
				}
				for d := 0; d < B; d++ {
					// One cell per thread per internal diagonal (lane
					// participates when its cell is on diagonal d).
					c := d - t.Lane()
					if c >= 0 && c < B {
						up := dScore.V[tr*stride+(c0+c+1)]
						left := dScore.V[(tr+1)*stride+(c0+c)]
						dg := dScore.V[tr*stride+(c0+c)]
						best := dg + refRow[c]
						if v := up - 1; v > best {
							best = v
						}
						if v := left - 1; v > best {
							best = v
						}
						t.FLOP(4)
						t.ScratchOp(3)
						dScore.V[(tr+1)*stride+(c0+c+1)] = best
					}
					t.Sync()
				}
				// Write the block's rows back to global memory.
				device.StN(t, dScore, (tr+1)*stride+c0+1, dScore.V[(tr+1)*stride+c0+1:(tr+1)*stride+c0+1+B])
			},
		}
	}

	// Forward wavefront: one kernel per anti-diagonal of blocks.
	for diag := 0; diag <= 2*(nb-1); diag++ {
		firstBr := 0
		if diag >= nb {
			firstBr = diag - nb + 1
		}
		lastBr := diag
		if lastBr > nb-1 {
			lastBr = nb - 1
		}
		s.Launch(blockKernel(diag, lastBr-firstBr+1, firstBr))
	}
	s.Wait(device.FromDevice(s, score, dScore))
	// CPU traceback along the optimal path — dependent loads.
	s.CPUTask(device.CPUTaskSpec{
		Name: "nw_traceback", Threads: 1,
		Func: func(c *device.CPUThread) {
			r, cl := n, n
			for r > 0 && cl > 0 {
				up := device.LdDep(c, score, (r-1)*stride+cl)
				left := device.LdDep(c, score, r*stride+(cl-1))
				dg := device.LdDep(c, score, (r-1)*stride+(cl-1))
				c.FLOP(3)
				switch {
				case dg >= up && dg >= left:
					r, cl = r-1, cl-1
				case up >= left:
					r--
				default:
					cl--
				}
			}
		},
	})
	s.EndROI()
	s.AddResult(float64(score.V[n*stride+n]), device.ChecksumI32(score.V))
}
