package lonestar

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// DMR is LonestarGPU's Delaunay mesh refinement skeleton: a worklist of
// bad triangles; each round a kernel expands every bad triangle's cavity
// (scattered neighbour reads), retires it, and appends newly created
// triangles — some of which are bad — onto the output worklist. The wide
// inter-stage data dependencies (the new mesh feeds the next round) are
// why the paper marks dmr as not pipeline-parallelizable.
type DMR struct{}

func init() { bench.Register(DMR{}) }

// Info describes dmr.
func (DMR) Info() bench.Info {
	return bench.Info{
		Suite: "lonestar", Name: "dmr",
		Desc:   "Delaunay mesh refinement: cavity expansion worklist rounds",
		PCComm: true, PipeParal: false, Regular: true, Irregular: true, SWQueue: true,
	}
}

// Run executes dmr.
func (DMR) Run(s *device.System, mode bench.Mode, size bench.Size) {
	ntri := bench.ScaleN(16384, size)
	capTri := ntri * 4
	block := 256

	// Triangles: 3 neighbour ids + a quality word (bit 0: bad).
	nb := device.AllocBuf[int32](s, capTri*3, "tri_neighbors", device.Host)
	quality := device.AllocBuf[int32](s, capTri, "tri_quality", device.Host)
	wlIn := device.AllocBuf[int32](s, capTri, "bad_wl_in", device.Host)
	wlOut := device.AllocBuf[int32](s, capTri, "bad_wl_out", device.Host)
	wlSize := device.AllocBuf[int32](s, 1, "bad_wl_size", device.Host)
	triCount := device.AllocBuf[int32](s, 1, "tri_count", device.Host)
	hostWl := device.AllocBuf[int32](s, 2, "host_counts", device.Host)

	rng := workload.RNG(181)
	badInit := 0
	for i := 0; i < ntri; i++ {
		for k := 0; k < 3; k++ {
			nb.V[i*3+k] = int32(rng.Intn(ntri))
		}
		if rng.Intn(8) == 0 {
			quality.V[i] = 1
			wlIn.V[badInit] = int32(i)
			badInit++
		}
	}
	triCount.V[0] = int32(ntri)

	s.BeginROI()
	dNb, _ := device.ToDevice(s, nb)
	dQ, _ := device.ToDevice(s, quality)
	dIn, _ := device.ToDevice(s, wlIn)
	dOut, _ := device.ToDevice(s, wlOut)
	dSize, _ := device.ToDevice(s, wlSize)
	dCount, _ := device.ToDevice(s, triCount)
	s.Drain()

	count := badInit
	for round := 0; round < 8 && count > 0; round++ {
		wlSize.V[0] = 0
		if !s.Unified() {
			device.Memcpy(s, dSize, wlSize)
		} else {
			dSize.V[0] = 0
		}
		cnt := count
		grid := (cnt + block - 1) / block
		s.Launch(device.KernelSpec{
			Name: "dmr_refine", Grid: grid, Block: block,
			Func: func(t *device.Thread) {
				idx := t.Global()
				if idx >= cnt {
					return
				}
				tri := int(device.Ld(t, dIn, idx))
				if device.Ld(t, dQ, tri)&1 == 0 {
					return // already fixed by an earlier cavity
				}
				// Expand the cavity: read the neighbours.
				var cav [3]int32
				for k := 0; k < 3; k++ {
					cav[k] = device.Ld(t, dNb, tri*3+k)
					device.Ld(t, dQ, int(cav[k]))
					t.FLOP(2)
				}
				// Retire the bad triangle.
				device.St(t, dQ, tri, 2)
				// Create two replacement triangles.
				base := device.AtomicAddI32(t, dCount, 0, 2)
				if int(base)+2 > capTri {
					return
				}
				for c := 0; c < 2; c++ {
					id := int(base) + c
					for k := 0; k < 3; k++ {
						device.St(t, dNb, id*3+k, cav[k%3])
					}
					// Deterministically some of the new triangles are bad.
					bad := (id*2654435761)>>7&7 == 0
					q := int32(0)
					if bad {
						q = 1
						slot := device.AtomicAddI32(t, dSize, 0, 1)
						if int(slot) < capTri {
							device.St(t, dOut, int(slot), int32(id))
						}
					}
					device.St(t, dQ, id, q)
				}
				t.FLOP(8)
			},
		})
		if !s.Unified() {
			device.Memcpy(s, wlSize, dSize)
			hostWl.V[0] = wlSize.V[0]
		} else {
			hostWl.V[0] = dSize.V[0]
		}
		next := 0
		s.CPUTask(device.CPUTaskSpec{
			Name: "dmr_check", Threads: 1,
			Func: func(c *device.CPUThread) {
				next = int(device.Ld(c, hostWl, 0))
				c.FLOP(1)
			},
		})
		if next > capTri {
			next = capTri
		}
		count = next
		dIn, dOut = dOut, dIn
	}
	s.Wait(device.FromDevice(s, quality, dQ))
	s.EndROI()
	s.AddResult(device.ChecksumI32(quality.V), float64(dCount.V[0]))
}

// TSP is LonestarGPU's travelling-salesman 2-opt skeleton: per round the
// GPU evaluates a large set of candidate edge swaps (atomic-min on the
// best improvement), the CPU applies the winning reversal, repeat.
type TSP struct{}

func init() { bench.Register(TSP{}) }

// Info describes tsp.
func (TSP) Info() bench.Info {
	return bench.Info{
		Suite: "lonestar", Name: "tsp",
		Desc:   "2-opt TSP improvement: GPU swap evaluation + CPU reversal",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true, SWQueue: true,
	}
}

// Run executes tsp.
func (TSP) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleN(2048, size) // cities
	rounds := 6
	block := 256
	cand := 64 * 1024 // candidate pairs per round

	xs := device.AllocBuf[float32](s, n, "city_x", device.Host)
	ys := device.AllocBuf[float32](s, n, "city_y", device.Host)
	tour := device.AllocBuf[int32](s, n, "tour", device.Host)
	best := device.AllocBuf[int32](s, 1, "best_delta", device.Host)
	pts := make([]float32, n*2)
	workload.Points(pts, 191)
	for i := 0; i < n; i++ {
		xs.V[i] = pts[i*2]
		ys.V[i] = pts[i*2+1]
		tour.V[i] = int32(i)
	}

	dist2 := func(a, b int32) float32 {
		dx := xs.V[a] - xs.V[b]
		dy := ys.V[a] - ys.V[b]
		return dx*dx + dy*dy
	}

	s.BeginROI()
	dXs, _ := device.ToDevice(s, xs)
	dYs, _ := device.ToDevice(s, ys)
	dTour, _ := device.ToDevice(s, tour)
	dBest, _ := device.ToDevice(s, best)
	s.Drain()

	const inf = int32(1) << 30
	for round := 0; round < rounds; round++ {
		best.V[0] = inf
		if !s.Unified() {
			device.Memcpy(s, dBest, best)
		} else {
			dBest.V[0] = inf
		}
		rr := round
		s.Launch(device.KernelSpec{
			Name: "tsp_eval_swaps", Grid: cand / block, Block: block,
			Func: func(t *device.Thread) {
				k := t.Global()
				// Deterministic candidate pair (i, j), i+1 < j.
				i := (k*2654435761 + rr) % (n - 3)
				j := i + 2 + (k*40503+rr)%(n-i-3)
				a := device.Ld(t, dTour, i)
				b := device.Ld(t, dTour, i+1)
				c := device.Ld(t, dTour, j)
				d := device.Ld(t, dTour, j+1)
				device.Ld(t, dXs, int(a))
				device.Ld(t, dYs, int(a))
				device.Ld(t, dXs, int(c))
				device.Ld(t, dYs, int(c))
				delta := dist2(a, c) + dist2(b, d) - dist2(a, b) - dist2(c, d)
				t.FLOP(16)
				if delta < 0 {
					// Sortable key: scaled delta in the high 16 bits (more
					// negative = better), candidate index in the low 16 so
					// the CPU can re-derive (i, j).
					mag := int32(delta * 1e4)
					if mag < -32000 {
						mag = -32000
					}
					key := mag*65536 + int32(k&0xFFFF)
					device.AtomicMinI32(t, dBest, 0, key)
				}
			},
		})
		if !s.Unified() {
			device.Memcpy(s, best, dBest)
		}
		doneRound := false
		s.CPUTask(device.CPUTaskSpec{
			Name: "tsp_apply_swap", Threads: 1,
			Func: func(c *device.CPUThread) {
				key := device.Ld(c, best, 0)
				if key >= inf || key >= 0 {
					doneRound = true
					return
				}
				k := int(uint32(key) & 0xFFFF)
				i := (k*2654435761 + rr) % (n - 3)
				j := i + 2 + (k*40503+rr)%(n-i-3)
				// Reverse tour[i+1..j] — serial CPU work.
				for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
					a := device.Ld(c, tour, lo)
					b := device.Ld(c, tour, hi)
					device.St(c, tour, lo, b)
					device.St(c, tour, hi, a)
					c.FLOP(2)
				}
			},
		})
		if doneRound {
			break
		}
		if !s.Unified() {
			device.Memcpy(s, dTour, tour)
		}
	}
	s.EndROI()
	s.AddResult(device.ChecksumI32(tour.V))
}
