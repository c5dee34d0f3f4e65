package parboil

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// PBFS is Parboil's queue-based BFS: levels expand through an atomic
// global queue with per-CTA aggregation — the suite's one software-queue
// benchmark.
type PBFS struct{}

func init() { bench.Register(PBFS{}) }

// Info describes bfs.
func (PBFS) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "bfs",
		Desc:   "queue-based BFS with per-CTA queue aggregation",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true, SWQueue: true,
	}
}

// Run executes bfs.
func (PBFS) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleN(32768, size)
	g := workload.UniformGraph(n, 8, 18)
	block := 256

	rowPtr := device.AllocBuf[int32](s, n+1, "row_ptr", device.Host)
	colIdx := device.AllocBuf[int32](s, g.M(), "col_idx", device.Host)
	cost := device.AllocBuf[int32](s, n, "cost", device.Host)
	qIn := device.AllocBuf[int32](s, n, "queue_in", device.Host)
	qOut := device.AllocBuf[int32](s, n, "queue_out", device.Host)
	qSize := device.AllocBuf[int32](s, 1, "queue_size", device.Host)
	hostQ := device.AllocBuf[int32](s, 1, "queue_size_host", device.Host)
	copy(rowPtr.V, g.RowPtr)
	copy(colIdx.V, g.ColIdx)
	for i := range cost.V {
		cost.V[i] = -1
	}
	cost.V[0] = 0
	qIn.V[0] = 0

	s.BeginROI()
	dRow, _ := device.ToDevice(s, rowPtr)
	dCol, _ := device.ToDevice(s, colIdx)
	dCost, _ := device.ToDevice(s, cost)
	dIn, _ := device.ToDevice(s, qIn)
	dOut, _ := device.ToDevice(s, qOut)
	dSize, _ := device.ToDevice(s, qSize)
	s.Drain()

	count := 1
	for level := int32(0); count > 0 && level < 48; level++ {
		qSize.V[0] = 0
		if !s.Unified() {
			device.Memcpy(s, dSize, qSize)
		} else {
			dSize.V[0] = 0
		}
		cnt := count
		grid := (cnt + block - 1) / block
		lvl := level
		pending := make([][]int32, grid)
		s.Launch(device.KernelSpec{
			Name: "pbfs_level", Grid: grid, Block: block,
			ScratchBytes: block * 4,
			Func: func(t *device.Thread) {
				idx := t.Global()
				cta := t.CTA()
				if idx < cnt {
					v := int(device.Ld(t, dIn, idx))
					lo := int(device.Ld(t, dRow, v))
					hi := int(device.Ld(t, dRow, v+1))
					for e := lo; e < hi; e++ {
						u := int(device.Ld(t, dCol, e))
						if device.Ld(t, dCost, u) == -1 {
							device.St(t, dCost, u, lvl+1)
							pending[cta] = append(pending[cta], int32(u))
							t.ScratchOp(1)
						}
						t.FLOP(1)
					}
				}
				t.Sync()
				if t.Lane() == t.Block()-1 && len(pending[cta]) > 0 {
					slot := device.AtomicAddI32(t, dSize, 0, int32(len(pending[cta])))
					if int(slot)+len(pending[cta]) <= qOut.Len() {
						device.StN(t, dOut, int(slot), pending[cta])
					}
					pending[cta] = nil
				}
			},
		})
		if !s.Unified() {
			device.Memcpy(s, hostQ, dSize)
		} else {
			hostQ.V[0] = dSize.V[0]
		}
		next := 0
		s.CPUTask(device.CPUTaskSpec{
			Name: "pbfs_check", Threads: 1,
			Func: func(c *device.CPUThread) {
				next = int(device.Ld(c, hostQ, 0))
				c.FLOP(1)
			},
		})
		if next > qOut.Len() {
			next = qOut.Len()
		}
		count = next
		dIn, dOut = dOut, dIn
	}
	s.Wait(device.FromDevice(s, cost, dCost))
	s.EndROI()
	s.AddResult(device.ChecksumI32(cost.V))
}

// MRIQ is Parboil's mri-q: for each voxel, sum a trigonometric kernel over
// all k-space samples — compute-bound, the samples broadcast across the
// warp and served from cache.
type MRIQ struct{}

func init() { bench.Register(MRIQ{}) }

// Info describes mri-q.
func (MRIQ) Info() bench.Info {
	return bench.Info{
		Suite: "parboil", Name: "mri-q",
		Desc:   "MRI Q-matrix: per-voxel sum over k-space samples",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams},
	}
}

// Run executes mri-q.
func (MRIQ) Run(s *device.System, mode bench.Mode, size bench.Size) {
	voxels := bench.ScaleN(16384, size)
	const K = 1024 // k-space samples
	const batch = 64
	block := 256

	kx := device.AllocBuf[float32](s, K, "kspace_x", device.Host)
	phi := device.AllocBuf[float32](s, K, "phi_mag", device.Host)
	x := device.AllocBuf[float32](s, voxels, "voxel_x", device.Host)
	qRe := device.AllocBuf[float32](s, voxels, "q_real", device.Host)
	qIm := device.AllocBuf[float32](s, voxels, "q_imag", device.Host)
	workload.Points(kx.V, 26)
	workload.Points(phi.V, 27)
	workload.Points(x.V, 28)

	// computeQ builds the Q kernel over voxels [base, base+count).
	computeQ := func(dKx, dPhi, dX, dRe, dIm *device.Buf[float32], base, count int) device.KernelSpec {
		return device.KernelSpec{
			Name: "mriq_computeQ", Grid: count / block, Block: block,
			Func: func(t *device.Thread) {
				v := base + t.Global()
				xv := device.Ld(t, dX, v)
				var re, im float32
				for k0 := 0; k0 < K; k0 += batch {
					ks := device.LdN(t, dKx, k0, batch)
					ph := device.LdN(t, dPhi, k0, batch)
					for k := 0; k < batch; k++ {
						// cos/sin stand-in: two multiply-adds per sample.
						arg := ks[k] * xv
						re += ph[k] * (1 - arg*arg/2)
						im += ph[k] * arg
					}
					t.FLOP(6 * batch)
				}
				device.St(t, dRe, v, re)
				device.St(t, dIm, v, im)
			},
		}
	}

	s.BeginROI()
	if mode == bench.ModeAsyncStreams {
		const chunks = 4
		per := voxels / chunks
		dKx := device.AllocBuf[float32](s, K, "d_kspace_x", device.Device)
		dPhi := device.AllocBuf[float32](s, K, "d_phi_mag", device.Device)
		dX := device.AllocBuf[float32](s, voxels, "d_voxel_x", device.Device)
		dRe := device.AllocBuf[float32](s, voxels, "d_q_real", device.Device)
		dIm := device.AllocBuf[float32](s, voxels, "d_q_imag", device.Device)
		// The k-space tables upload once; voxel chunks then stream through
		// a two-slot staging pipeline (chunk c's upload waits for the
		// kernel that freed slot c-2), overlapping x uploads, Q kernels,
		// and the two result downloads.
		kUp := device.MemcpyAsync(s, dKx, kx)
		pUp := device.MemcpyAsync(s, dPhi, phi)
		s.Wait(s.DoubleBuffer(device.PipelineSpec{
			Name: "mriq", Chunks: chunks,
			H2D: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, dX, c*per, x, c*per, per, deps...)
			},
			Kernel: func(c int, deps ...*device.Handle) *device.Handle {
				return s.LaunchAsync(computeQ(dKx, dPhi, dX, dRe, dIm, c*per, per), append(deps, kUp, pUp)...)
			},
			D2H: func(c int, deps ...*device.Handle) *device.Handle {
				h := device.MemcpyRangeAsync(s, qRe, c*per, dRe, c*per, per, deps...)
				return device.MemcpyRangeAsync(s, qIm, c*per, dIm, c*per, per, h)
			},
		}))
	} else {
		dKx, _ := device.ToDevice(s, kx)
		dPhi, _ := device.ToDevice(s, phi)
		dX, _ := device.ToDevice(s, x)
		dRe, _ := device.ToDevice(s, qRe)
		dIm, _ := device.ToDevice(s, qIm)
		s.Drain()

		s.Launch(computeQ(dKx, dPhi, dX, dRe, dIm, 0, voxels))
		s.Wait(device.FromDevice(s, qRe, dRe))
		s.Wait(device.FromDevice(s, qIm, dIm))
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(qRe.V), device.ChecksumF32(qIm.V))
}
