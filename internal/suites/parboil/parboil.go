// Package parboil re-implements the Parboil benchmarks this study uses,
// preserving their pipeline structures against the device runtime.
package parboil

import (
	"strconv"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// Stencil is Parboil's 7-point stencil: iterated kernels double-buffering
// between two large device-temporary grids — the canonical W-R spill
// producer when the per-stage working set exceeds the GPU L2.
type Stencil struct{}

func init() { bench.Register(Stencil{}) }

// Info describes stencil.
func (Stencil) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "stencil",
		Desc:   "iterated 7-point stencil with device double-buffering",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams},
	}
}

// Run executes stencil.
func (Stencil) Run(s *device.System, mode bench.Mode, size bench.Size) {
	nx, ny := 512, bench.ScaleSide(256, size)
	nz := 4
	iters := 4
	block := 256
	cells := nx * ny * nz

	grid := device.AllocBuf[float32](s, cells, "grid", device.Host)
	workload.Grid(grid.V, nx, 13)

	// step builds the stencil kernel over cells [base, base+count).
	step := func(a, b *device.Buf[float32], base, count int) device.KernelSpec {
		return device.KernelSpec{
			Name: "stencil_step", Grid: count / block, Block: block,
			Func: func(t *device.Thread) {
				i := base + t.Global()
				z := i / (nx * ny)
				rem := i % (nx * ny)
				y, x := rem/nx, rem%nx
				v := device.Ld(t, a, i)
				acc := -6 * v
				if x > 0 {
					acc += device.Ld(t, a, i-1)
				}
				if x < nx-1 {
					acc += device.Ld(t, a, i+1)
				}
				if y > 0 {
					acc += device.Ld(t, a, i-nx)
				}
				if y < ny-1 {
					acc += device.Ld(t, a, i+nx)
				}
				if z > 0 {
					acc += device.Ld(t, a, i-nx*ny)
				}
				if z < nz-1 {
					acc += device.Ld(t, a, i+nx*ny)
				}
				t.FLOP(8)
				device.St(t, b, i, v+0.1*acc)
			},
		}
	}

	s.BeginROI()
	if mode == bench.ModeAsyncStreams {
		// One H2D stream per z-slab; the first sweep runs as per-slab
		// kernels, each fenced (cudaStreamWaitEvent-style) on its own
		// slab's upload and both halo neighbours', so interior slabs
		// compute while later slabs still stream in. The remaining sweeps
		// touch the whole grid and chain as ordinary async kernels.
		dA := device.AllocBuf[float32](s, cells, "grid_dev", device.Device)
		dB := device.AllocBuf[float32](s, cells, "grid_tmp", device.Device)
		slab := nx * ny
		events := make([]*device.Event, nz)
		for z := 0; z < nz; z++ {
			up := s.NewStream("stencil_h2d_z" + strconv.Itoa(z))
			device.CopyRange(up, dA, z*slab, grid, z*slab, slab)
			events[z] = up.Record("slab" + strconv.Itoa(z))
		}
		deps := make([]*device.Handle, 0, nz)
		for z := 0; z < nz; z++ {
			ks := s.NewStream("stencil_k_z" + strconv.Itoa(z))
			for dz := -1; dz <= 1; dz++ {
				if z+dz >= 0 && z+dz < nz {
					ks.WaitEvent(events[z+dz])
				}
			}
			deps = append(deps, ks.Launch(step(dA, dB, z*slab, slab)))
		}
		src, dst := dB, dA
		for it := 1; it < iters; it++ {
			deps = []*device.Handle{s.LaunchAsync(step(src, dst, 0, cells), deps...)}
			src, dst = dst, src
		}
		if src != dA {
			deps = []*device.Handle{device.MemcpyAsync(s, dA, src, deps...)}
		}
		s.Wait(device.MemcpyAsync(s, grid, dA, deps...))
	} else {
		dA, _ := device.ToDevice(s, grid)
		dB := device.AllocBuf[float32](s, cells, "grid_tmp", device.Device)
		s.Drain()

		src, dst := dA, dB
		for it := 0; it < iters; it++ {
			s.Launch(step(src, dst, 0, cells))
			src, dst = dst, src
		}
		if src != dA {
			device.Memcpy(s, dA, src)
		}
		s.Wait(device.FromDevice(s, grid, dA))
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(grid.V))
}

// SpMV is Parboil's sparse matrix-vector product over CSR: irregular
// gathers of the dense vector, repeated a few times as an iterative solver
// would.
type SpMV struct{}

func init() { bench.Register(SpMV{}) }

// Info describes spmv.
func (SpMV) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "spmv",
		Desc:   "CSR sparse matrix-vector product, irregular gathers",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams},
	}
}

// Run executes spmv.
func (SpMV) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleN(32768, size)
	g := workload.UniformGraph(n, 12, 17)
	block := 256
	iters := 4

	rowPtr := device.AllocBuf[int32](s, n+1, "row_ptr", device.Host)
	colIdx := device.AllocBuf[int32](s, g.M(), "col_idx", device.Host)
	vals := device.AllocBuf[float32](s, g.M(), "values", device.Host)
	x := device.AllocBuf[float32](s, n, "x", device.Host)
	y := device.AllocBuf[float32](s, n, "y", device.Host)
	copy(rowPtr.V, g.RowPtr)
	copy(colIdx.V, g.ColIdx)
	copy(vals.V, g.EdgeWeigh)
	for i := range x.V {
		x.V[i] = 1
	}

	// csr builds the SpMV kernel over rows [base, base+count).
	csr := func(dRow, dCol *device.Buf[int32], dVal, dX, dY *device.Buf[float32], base, count int) device.KernelSpec {
		return device.KernelSpec{
			Name: "spmv_csr", Grid: count / block, Block: block,
			Func: func(t *device.Thread) {
				r := base + t.Global()
				lo := int(device.Ld(t, dRow, r))
				hi := int(device.Ld(t, dRow, r+1))
				var acc float32
				for e := lo; e < hi; e++ {
					c := device.Ld(t, dCol, e)
					v := device.Ld(t, dVal, e)
					acc += v * device.Ld(t, dX, int(c)) // scattered gather
				}
				t.FLOP(2 * (hi - lo))
				device.St(t, dY, r, acc)
			},
		}
	}

	s.BeginROI()
	if mode == bench.ModeAsyncStreams {
		const chunks = 4
		per := n / chunks
		dRow := device.AllocBuf[int32](s, n+1, "d_row_ptr", device.Device)
		dCol := device.AllocBuf[int32](s, g.M(), "d_col_idx", device.Device)
		dVal := device.AllocBuf[float32](s, g.M(), "d_values", device.Device)
		dX := device.AllocBuf[float32](s, n, "d_x", device.Device)
		dY := device.AllocBuf[float32](s, n, "d_y", device.Device)
		xUp := device.MemcpyAsync(s, dX, x)
		// The first sweep overlaps the CSR upload: each row chunk's kernel
		// starts as soon as its row pointers and edges (plus x) are
		// resident; later sweeps reuse the resident graph.
		pipe := s.Pipeline(device.PipelineSpec{
			Name: "spmv", Chunks: chunks,
			H2D: func(c int, deps ...*device.Handle) *device.Handle {
				lo := c * per
				elo, ehi := int(g.RowPtr[lo]), int(g.RowPtr[lo+per])
				h := device.MemcpyRangeAsync(s, dRow, lo, rowPtr, lo, per+1, deps...)
				h = device.MemcpyRangeAsync(s, dCol, elo, colIdx, elo, ehi-elo, h)
				return device.MemcpyRangeAsync(s, dVal, elo, vals, elo, ehi-elo, h)
			},
			Kernel: func(c int, deps ...*device.Handle) *device.Handle {
				return s.LaunchAsync(csr(dRow, dCol, dVal, dX, dY, c*per, per), append(deps, xUp)...)
			},
		})
		prev := pipe
		for it := 1; it < iters; it++ {
			prev = s.LaunchAsync(csr(dRow, dCol, dVal, dX, dY, 0, n), prev)
		}
		s.Wait(device.MemcpyAsync(s, y, dY, prev))
	} else {
		dRow, _ := device.ToDevice(s, rowPtr)
		dCol, _ := device.ToDevice(s, colIdx)
		dVal, _ := device.ToDevice(s, vals)
		dX, _ := device.ToDevice(s, x)
		dY, _ := device.ToDevice(s, y)
		s.Drain()

		for it := 0; it < iters; it++ {
			s.Launch(csr(dRow, dCol, dVal, dX, dY, 0, n))
		}
		s.Wait(device.FromDevice(s, y, dY))
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(y.V))
}

// SGEMM is Parboil's tiled dense matrix multiply: scratch-tiled inner
// loops, compute-bound, the regular end of the suite.
type SGEMM struct{}

func init() { bench.Register(SGEMM{}) }

// Info describes sgemm.
func (SGEMM) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "sgemm",
		Desc:   "tiled dense matrix multiply",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams},
	}
}

// Run executes sgemm.
func (SGEMM) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleSide(192, size) // square M=N=K
	const T = 32                    // tile
	block := 128

	a := device.AllocBuf[float32](s, n*n, "A", device.Host)
	b := device.AllocBuf[float32](s, n*n, "B", device.Host)
	cOut := device.AllocBuf[float32](s, n*n, "C", device.Host)
	workload.Matrix(a.V, 23)
	workload.Matrix(b.V, 24)

	// gemm builds the tiled-multiply kernel over C elements
	// [base, base+count) — whole rows of C when count is a multiple of n.
	gemm := func(dA, dB, dC *device.Buf[float32], base, count int) device.KernelSpec {
		return device.KernelSpec{
			Name: "sgemm_tiled", Grid: count / block, Block: block,
			ScratchBytes: 2 * T * T * 4,
			Func: func(t *device.Thread) {
				i := base + t.Global()
				r, c := i/n, i%n
				var acc float32
				for k0 := 0; k0 < n; k0 += T {
					// Tile loads: this thread's row slice of A and (via the
					// cooperative tile) a strided slice of B.
					ar := device.LdN(t, dA, r*n+k0, T)
					device.LdN(t, dB, (k0+t.Lane()%T)*n+(c/T)*T, T)
					for kk := 0; kk < T; kk++ {
						acc += ar[kk] * dB.V[(k0+kk)*n+c]
					}
					t.ScratchOp(2)
					t.FLOP(2 * T)
					t.Sync()
				}
				device.St(t, dC, i, acc)
			},
		}
	}

	s.BeginROI()
	if mode == bench.ModeAsyncStreams {
		const chunks = 4
		per := n / chunks * n // whole rows of A and C per chunk
		dA := device.AllocBuf[float32](s, n*n, "d_A", device.Device)
		dB := device.AllocBuf[float32](s, n*n, "d_B", device.Device)
		dC := device.AllocBuf[float32](s, n*n, "d_C", device.Device)
		// B is read by every chunk, so it uploads once up front; the A row
		// blocks stream in against the other chunks' kernels and C row
		// blocks stream out behind them.
		bUp := device.MemcpyAsync(s, dB, b)
		s.Wait(s.Pipeline(device.PipelineSpec{
			Name: "sgemm", Chunks: chunks,
			H2D: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, dA, c*per, a, c*per, per, deps...)
			},
			Kernel: func(c int, deps ...*device.Handle) *device.Handle {
				return s.LaunchAsync(gemm(dA, dB, dC, c*per, per), append(deps, bUp)...)
			},
			D2H: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, cOut, c*per, dC, c*per, per, deps...)
			},
		}))
	} else {
		dA, _ := device.ToDevice(s, a)
		dB, _ := device.ToDevice(s, b)
		dC, _ := device.ToDevice(s, cOut)
		s.Drain()

		s.Launch(gemm(dA, dB, dC, 0, n*n))
		s.Wait(device.FromDevice(s, cOut, dC))
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(cOut.V))
}

// FFT is Parboil's batched 1-D FFT: one kernel per butterfly stage,
// ping-ponging between two large device buffers — every stage spills its
// output past the L2 before the next stage consumes it.
type FFT struct{}

func init() { bench.Register(FFT{}) }

// Info describes fft.
func (FFT) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "fft",
		Desc:   "batched radix-2 FFT, kernel per stage, double-buffered",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes fft.
func (FFT) Run(s *device.System, mode bench.Mode, size bench.Size) {
	batch := bench.ScaleSide(512, size) * 2
	const fftN = 256
	block := 256
	total := batch * fftN

	re := device.AllocBuf[float32](s, total, "real", device.Host)
	im := device.AllocBuf[float32](s, total, "imag", device.Host)
	workload.Points(re.V, 33)

	s.BeginROI()
	dRe, _ := device.ToDevice(s, re)
	dIm, _ := device.ToDevice(s, im)
	dRe2 := device.AllocBuf[float32](s, total, "real_tmp", device.Device)
	dIm2 := device.AllocBuf[float32](s, total, "imag_tmp", device.Device)
	s.Drain()

	// CPU bit-reversal permutation table (setup stage on the host).
	rev := make([]int, fftN)
	s.CPUTask(device.CPUTaskSpec{
		Name: "fft_bitrev_setup", Threads: 1,
		Func: func(c *device.CPUThread) {
			bits := 0
			for 1<<bits < fftN {
				bits++
			}
			for i := 0; i < fftN; i++ {
				r := 0
				for j := 0; j < bits; j++ {
					if i&(1<<j) != 0 {
						r |= 1 << (bits - 1 - j)
					}
				}
				rev[i] = r
				c.FLOP(bits)
			}
		},
	})

	srcRe, srcIm, dstRe, dstIm := dRe, dIm, dRe2, dIm2
	// Stage 0 applies the bit-reversal while copying.
	s.Launch(device.KernelSpec{
		Name: "fft_bitrev", Grid: total / block, Block: block,
		Func: func(t *device.Thread) {
			i := t.Global()
			b, k := i/fftN, i%fftN
			vr := device.Ld(t, srcRe, b*fftN+rev[k])
			vi := device.Ld(t, srcIm, b*fftN+rev[k])
			device.St(t, dstRe, i, vr)
			device.St(t, dstIm, i, vi)
		},
	})
	srcRe, srcIm, dstRe, dstIm = dstRe, dstIm, srcRe, srcIm

	for span := 1; span < fftN; span *= 2 {
		sp := span
		sr, si, dr, di := srcRe, srcIm, dstRe, dstIm
		s.Launch(device.KernelSpec{
			Name: "fft_stage", Grid: total / 2 / block, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				b := i / (fftN / 2)
				p := i % (fftN / 2)
				grp := p / sp
				off := p % sp
				i0 := b*fftN + grp*2*sp + off
				i1 := i0 + sp
				ar := device.Ld(t, sr, i0)
				ai := device.Ld(t, si, i0)
				br := device.Ld(t, sr, i1)
				bi := device.Ld(t, si, i1)
				// Twiddle approximated by a rotation dependent on off.
				w := float32(off) / float32(2*sp)
				tr := br*(1-w) + bi*w
				ti := bi*(1-w) - br*w
				t.FLOP(10)
				device.St(t, dr, i0, ar+tr)
				device.St(t, di, i0, ai+ti)
				device.St(t, dr, i1, ar-tr)
				device.St(t, di, i1, ai-ti)
			},
		})
		srcRe, srcIm, dstRe, dstIm = dstRe, dstIm, srcRe, srcIm
	}
	if srcRe != dRe {
		device.Memcpy(s, dRe, srcRe)
		device.Memcpy(s, dIm, srcIm)
	}
	s.Wait(device.FromDevice(s, re, dRe))
	s.Wait(device.FromDevice(s, im, dIm))
	s.EndROI()
	s.AddResult(device.ChecksumF32(re.V), device.ChecksumF32(im.V))
}
