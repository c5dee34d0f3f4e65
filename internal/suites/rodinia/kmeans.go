// Package rodinia re-implements the Rodinia benchmarks this study uses,
// preserving each benchmark's application-level pipeline structure (kernel
// sequence, copy placement, CPU phases) against the device runtime.
package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
)

// Kmeans is the paper's Section II case study: iterative clustering with
// wide-TLP GPU distance/assignment kernels and a limited-TLP CPU center
// update, exchanging assignments every iteration.
//
// Pipeline per iteration (copy mode, as in Rodinia's kmeans_cuda loop):
// H2D features, H2D centers, assignment kernel, D2H assignments, CPU center
// recomputation. The limited-copy version drops every copy; the
// async-streams version chunks points and overlaps copies with kernels; the
// parallel-chunked version hoists the partial-sum reduction onto the GPU
// (as Section V-B's validation did, using per-CTA partials) and runs a tiny
// cache-resident CPU consumer per chunk.
type Kmeans struct{}

func init() { bench.Register(Kmeans{}) }

// Info describes kmeans for the registry and Table II.
func (Kmeans) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "kmeans",
		Desc:   "iterative k-means clustering (Section II case study)",
		PCComm: true, PipeParal: true, Regular: true,
		ExtraModes: []bench.Mode{bench.ModeAsyncStreams, bench.ModeParallelChunked},
	}
}

type kmeansDims struct {
	n, d, k, iters, block int
}

func kmeansSize(size bench.Size) kmeansDims {
	return kmeansDims{
		n:     bench.ScaleN(16384, size),
		d:     32,
		k:     8,
		iters: 3,
		block: 256,
	}
}

// kmeansData holds the shared functional state of one run.
type kmeansData struct {
	kmeansDims
	featPM  *device.Buf[float32] // point-major [i*d+j], CPU side
	featFM  *device.Buf[float32] // feature-major [j*n+i], GPU side layout
	centers *device.Buf[float32]
	assign  *device.Buf[int32]
}

func kmeansSetup(s *device.System, size bench.Size) *kmeansData {
	dm := kmeansSize(size)
	kd := &kmeansData{kmeansDims: dm}
	kd.featPM = device.AllocBuf[float32](s, dm.n*dm.d, "features_pm", device.Host)
	kd.featFM = device.AllocBuf[float32](s, dm.n*dm.d, "features_fm", device.Host)
	kd.centers = device.AllocBuf[float32](s, dm.k*dm.d, "centers", device.Host)
	kd.assign = device.AllocBuf[int32](s, dm.n, "assign", device.Host)
	pts := kd.featPM.V
	fillPoints(pts)
	for i := 0; i < dm.n; i++ {
		for j := 0; j < dm.d; j++ {
			kd.featFM.V[j*dm.n+i] = pts[i*dm.d+j]
		}
	}
	for c := 0; c < dm.k; c++ {
		copy(kd.centers.V[c*dm.d:(c+1)*dm.d], pts[c*dm.d:(c+1)*dm.d])
	}
	return kd
}

// assignKernel builds the per-chunk assignment kernel: each thread loads the
// centers (L1-resident), its feature vector feature-major (coalesced), picks
// the nearest center, and stores its assignment.
func (kd *kmeansData) assignKernel(feat *device.Buf[float32], centers *device.Buf[float32], assign *device.Buf[int32], base, count int) device.KernelSpec {
	return device.KernelSpec{
		Name: "kmeans_assign", Grid: count / kd.block, Block: kd.block,
		Func: func(t *device.Thread) {
			i := base + t.Global()
			cen := device.LdN(t, centers, 0, kd.k*kd.d)
			best, bestD := int32(0), float32(1e30)
			for c := 0; c < kd.k; c++ {
				var dist float32
				for j := 0; j < kd.d; j++ {
					v := device.Ld(t, feat, j*kd.n+i)
					diff := v - cen[c*kd.d+j]
					dist += diff * diff
				}
				if dist < bestD {
					bestD, best = dist, int32(c)
				}
			}
			t.FLOP(3 * kd.k * kd.d)
			device.St(t, assign, i, best)
		},
	}
}

// cpuUpdate recomputes centers from assignments on the CPU, reading every
// point (the limited-TLP phase Rodinia leaves on the CPU).
func (kd *kmeansData) cpuUpdate(s *device.System, deps ...*device.Handle) *device.Handle {
	return s.CPUTaskAsync(device.CPUTaskSpec{
		Name: "kmeans_center_update", Threads: 1,
		Func: func(c *device.CPUThread) {
			sums := make([]float64, kd.k*kd.d)
			counts := make([]int, kd.k)
			for i := 0; i < kd.n; i++ {
				a := int(device.Ld(c, kd.assign, i))
				fv := device.LdN(c, kd.featPM, i*kd.d, kd.d)
				for j, v := range fv {
					sums[a*kd.d+j] += float64(v)
				}
				counts[a]++
				c.FLOP(kd.d)
			}
			for cl := 0; cl < kd.k; cl++ {
				if counts[cl] == 0 {
					continue
				}
				for j := 0; j < kd.d; j++ {
					device.St(c, kd.centers, cl*kd.d+j, float32(sums[cl*kd.d+j]/float64(counts[cl])))
				}
				c.FLOP(kd.d)
			}
		},
	}, deps...)
}

// Run executes kmeans in the requested organization.
func (Kmeans) Run(s *device.System, mode bench.Mode, size bench.Size) {
	kd := kmeansSetup(s, size)
	s.BeginROI()
	switch mode {
	case bench.ModeCopy, bench.ModeLimitedCopy:
		kd.runBulkSynchronous(s)
	case bench.ModeAsyncStreams:
		kd.runAsyncStreams(s)
	case bench.ModeParallelChunked:
		kd.runParallelChunked(s)
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(kd.centers.V), device.ChecksumI32(kd.assign.V))
}

// runBulkSynchronous is the unmodified Rodinia structure. On the discrete
// system every iteration re-copies features and centers in and assignments
// out (as kmeans_cuda does); on the heterogeneous processor ToDevice
// aliases and all copies vanish.
func (kd *kmeansData) runBulkSynchronous(s *device.System) {
	var dFeat *device.Buf[float32]
	var dCen *device.Buf[float32]
	var dAssign *device.Buf[int32]
	if s.Unified() {
		dFeat, dCen, dAssign = kd.featFM, kd.centers, kd.assign
	} else {
		dFeat = device.AllocBuf[float32](s, kd.n*kd.d, "d_features", device.Device)
		dCen = device.AllocBuf[float32](s, kd.k*kd.d, "d_centers", device.Device)
		dAssign = device.AllocBuf[int32](s, kd.n, "d_assign", device.Device)
	}
	for it := 0; it < kd.iters; it++ {
		if !s.Unified() {
			device.Memcpy(s, dFeat, kd.featFM)
			device.Memcpy(s, dCen, kd.centers)
		}
		s.Launch(kd.assignKernel(dFeat, dCen, dAssign, 0, kd.n))
		if !s.Unified() {
			device.Memcpy(s, kd.assign, dAssign)
		}
		s.Wait(kd.cpuUpdate(s))
	}
}

// runAsyncStreams is the discrete-system kernel-fission restructuring:
// points are chunked 4 wide in a chunk-major staging layout, so each
// chunk's features move in one contiguous H2D copy that pipelines against
// the other chunks' kernels and D2H copies — kernel fission + streams.
func (kd *kmeansData) runAsyncStreams(s *device.System) {
	const chunks = 4
	per := kd.n / chunks
	// Staging layout: [chunk][feature][point-in-chunk] — chunk-contiguous.
	featCM := device.AllocBuf[float32](s, kd.n*kd.d, "features_cm", device.Host)
	for c := 0; c < chunks; c++ {
		for j := 0; j < kd.d; j++ {
			for ii := 0; ii < per; ii++ {
				featCM.V[c*per*kd.d+j*per+ii] = kd.featFM.V[j*kd.n+c*per+ii]
			}
		}
	}
	dFeat := device.AllocBuf[float32](s, kd.n*kd.d, "d_features", device.Device)
	dCen := device.AllocBuf[float32](s, kd.k*kd.d, "d_centers", device.Device)
	dAssign := device.AllocBuf[int32](s, kd.n, "d_assign", device.Device)

	// chunkKernel indexes the chunk-major layout.
	chunkKernel := func(c int) device.KernelSpec {
		base := c * per
		return device.KernelSpec{
			Name: "kmeans_assign_chunk", Grid: per / kd.block, Block: kd.block,
			Func: func(t *device.Thread) {
				ii := t.Global()
				cen := device.LdN(t, dCen, 0, kd.k*kd.d)
				best, bestD := int32(0), float32(1e30)
				for cl := 0; cl < kd.k; cl++ {
					var dist float32
					for j := 0; j < kd.d; j++ {
						v := device.Ld(t, dFeat, c*per*kd.d+j*per+ii)
						diff := v - cen[cl*kd.d+j]
						dist += diff * diff
					}
					if dist < bestD {
						bestD, best = dist, int32(cl)
					}
				}
				t.FLOP(3 * kd.k * kd.d)
				device.St(t, dAssign, base+ii, best)
			},
		}
	}

	var iterDone *device.Handle
	for it := 0; it < kd.iters; it++ {
		var deps []*device.Handle
		if iterDone != nil {
			deps = append(deps, iterDone)
		}
		cenCopy := device.MemcpyAsync(s, dCen, kd.centers, deps...)
		pipe := s.Pipeline(device.PipelineSpec{
			Name: "kmeans", Chunks: chunks,
			H2D: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, dFeat, c*per*kd.d, featCM, c*per*kd.d, per*kd.d,
					append(deps, cenCopy)...)
			},
			Kernel: func(c int, deps ...*device.Handle) *device.Handle {
				return s.LaunchAsync(chunkKernel(c), deps...)
			},
			D2H: func(c int, deps ...*device.Handle) *device.Handle {
				return device.MemcpyRangeAsync(s, kd.assign, c*per, dAssign, c*per, per, deps...)
			},
		})
		iterDone = kd.cpuUpdate(s, pipe)
	}
	s.Wait(iterDone)
}

// runParallelChunked is the heterogeneous-processor producer-consumer
// restructuring: chunk kernels compute assignments and per-CTA partial sums
// (the reduction hoisted onto the GPU); a small CPU consumer per chunk reads
// just the partials — cache-resident, synchronized by in-memory signals.
func (kd *kmeansData) runParallelChunked(s *device.System) {
	const chunks = 4
	per := kd.n / chunks
	ctasPerChunk := per / kd.block
	// Per-CTA partials: [chunk][cta][k*d] sums + [chunk][cta][k] counts.
	psums := device.AllocBuf[float32](s, chunks*ctasPerChunk*kd.k*kd.d, "partial_sums", device.Device)
	pcnts := device.AllocBuf[int32](s, chunks*ctasPerChunk*kd.k, "partial_counts", device.Device)

	var iterDone *device.Handle
	for it := 0; it < kd.iters; it++ {
		var deps []*device.Handle
		if iterDone != nil {
			deps = append(deps, iterDone)
		}
		sums := make([]float64, kd.k*kd.d)
		counts := make([]int, kd.k)
		var cpuDone []*device.Handle
		for c := 0; c < chunks; c++ {
			base := c * per
			ctaBase := c * ctasPerChunk
			// Producer kernel: assignment + per-CTA partials.
			ctaAcc := make([][]float32, ctasPerChunk)
			ctaCnt := make([][]int32, ctasPerChunk)
			k := s.LaunchAsync(device.KernelSpec{
				Name: "kmeans_assign_partial", Grid: ctasPerChunk, Block: kd.block,
				ScratchBytes: kd.k * kd.d * 4,
				Func: func(t *device.Thread) {
					cta := t.CTA()
					if ctaAcc[cta] == nil {
						ctaAcc[cta] = make([]float32, kd.k*kd.d)
						ctaCnt[cta] = make([]int32, kd.k)
					}
					i := base + t.Global()
					cen := device.LdN(t, kd.centers, 0, kd.k*kd.d)
					best, bestD := 0, float32(1e30)
					for cl := 0; cl < kd.k; cl++ {
						var dist float32
						for j := 0; j < kd.d; j++ {
							v := device.Ld(t, kd.featFM, j*kd.n+i)
							diff := v - cen[cl*kd.d+j]
							dist += diff * diff
						}
						if dist < bestD {
							bestD, best = dist, cl
						}
					}
					t.FLOP(3 * kd.k * kd.d)
					device.St(t, kd.assign, i, int32(best))
					// Scratch-side accumulation, then the CTA's last thread
					// publishes the partials.
					for j := 0; j < kd.d; j++ {
						ctaAcc[cta][best*kd.d+j] += kd.featFM.V[j*kd.n+i]
					}
					ctaCnt[cta][best]++
					t.ScratchOp(2)
					t.FLOP(kd.d)
					if t.Lane() == t.Block()-1 {
						device.StN(t, psums, (ctaBase+cta)*kd.k*kd.d, ctaAcc[cta])
						device.StN(t, pcnts, (ctaBase+cta)*kd.k, ctaCnt[cta])
					}
				},
			}, deps...)
			// Consumer: reads only the chunk's partials (tiny, in cache).
			cc := c
			cpuDone = append(cpuDone, s.CPUTaskAsync(device.CPUTaskSpec{
				Name: "kmeans_consume_partials", Threads: 1,
				Func: func(cth *device.CPUThread) {
					for cta := 0; cta < ctasPerChunk; cta++ {
						ps := device.LdN(cth, psums, (cc*ctasPerChunk+cta)*kd.k*kd.d, kd.k*kd.d)
						pc := device.LdN(cth, pcnts, (cc*ctasPerChunk+cta)*kd.k, kd.k)
						for x, v := range ps {
							sums[x] += float64(v)
						}
						for x, v := range pc {
							counts[x] += int(v)
						}
						cth.FLOP(kd.k * kd.d)
					}
				},
			}, k))
		}
		// Final small center recomputation once all chunks are consumed.
		iterDone = s.CPUTaskAsync(device.CPUTaskSpec{
			Name: "kmeans_new_centers", Threads: 1,
			Func: func(cth *device.CPUThread) {
				for cl := 0; cl < kd.k; cl++ {
					if counts[cl] == 0 {
						continue
					}
					for j := 0; j < kd.d; j++ {
						device.St(cth, kd.centers, cl*kd.d+j, float32(sums[cl*kd.d+j]/float64(counts[cl])))
					}
					cth.FLOP(kd.d)
				}
			},
		}, cpuDone...)
	}
	s.Wait(iterDone)
}
