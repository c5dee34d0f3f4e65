package lonestar

import (
	"math"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// BH is LonestarGPU's Barnes-Hut n-body skeleton: the CPU builds a quadtree
// over the bodies each timestep (serial, pointer-heavy), the tree arrays
// are transferred to the GPU, and a force kernel traverses the tree per
// body with data-dependent depth and heavy divergence. The tree mirror is
// rebuilt and re-copied every timestep in both versions — bh is the one
// benchmark whose copies the paper's elimination techniques could not
// reduce.
type BH struct{}

func init() { bench.Register(BH{}) }

// Info describes bh.
func (BH) Info() bench.Info {
	return bench.Info{
		Suite: "lonestar", Name: "bh",
		Desc:   "Barnes-Hut n-body: CPU tree build + GPU tree-walk forces",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true,
	}
}

// Run executes bh.
func (BH) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleN(4096, size)
	steps := 2
	block := 128
	maxNodes := 4 * n

	px := device.AllocBuf[float32](s, n, "pos_x", device.Host)
	py := device.AllocBuf[float32](s, n, "pos_y", device.Host)
	vx := device.AllocBuf[float32](s, n, "vel_x", device.Host)
	vy := device.AllocBuf[float32](s, n, "vel_y", device.Host)
	ax := device.AllocBuf[float32](s, n, "acc_x", device.Host)
	ay := device.AllocBuf[float32](s, n, "acc_y", device.Host)
	// Tree arrays (host side, rebuilt per step).
	child := device.AllocBuf[int32](s, maxNodes*4, "tree_child", device.Host)
	cmx := device.AllocBuf[float32](s, maxNodes, "tree_cmx", device.Host)
	cmy := device.AllocBuf[float32](s, maxNodes, "tree_cmy", device.Host)
	mass := device.AllocBuf[float32](s, maxNodes, "tree_mass", device.Host)
	half := device.AllocBuf[float32](s, maxNodes, "tree_half", device.Host)
	pts := make([]float32, n*2)
	workload.Points(pts, 171)
	for i := 0; i < n; i++ {
		px.V[i] = pts[i*2]
		py.V[i] = pts[i*2+1]
	}

	s.BeginROI()
	dPx, _ := device.ToDevice(s, px)
	dPy, _ := device.ToDevice(s, py)
	dAx, _ := device.ToDevice(s, ax)
	dAy, _ := device.ToDevice(s, ay)
	// The tree mirror stays an explicit double-buffered copy in both modes
	// (the runtime cannot prove the rebuilt arrays mirror the host ones).
	dChild := device.AllocBuf[int32](s, maxNodes*4, "d_tree_child", device.Device)
	dCmx := device.AllocBuf[float32](s, maxNodes, "d_tree_cmx", device.Device)
	dCmy := device.AllocBuf[float32](s, maxNodes, "d_tree_cmy", device.Device)
	dMass := device.AllocBuf[float32](s, maxNodes, "d_tree_mass", device.Device)
	dHalf := device.AllocBuf[float32](s, maxNodes, "d_tree_half", device.Device)
	s.Drain()

	nodes := 0
	for step := 0; step < steps; step++ {
		// CPU: build the quadtree (serial insertion, dependent loads).
		nodes = 0
		s.CPUTask(device.CPUTaskSpec{
			Name: "bh_build_tree", Threads: 1,
			Func: func(c *device.CPUThread) {
				alloc := func(hx float32) int32 {
					id := int32(nodes)
					nodes++
					for q := 0; q < 4; q++ {
						device.St(c, child, int(id)*4+q, -1)
					}
					device.St(c, half, int(id), hx)
					device.St(c, mass, int(id), 0)
					return id
				}
				root := alloc(0.5)
				for b := 0; b < n; b++ {
					x := device.Ld(c, px, b)
					y := device.Ld(c, py, b)
					node := root
					cx, cy := float32(0.5), float32(0.5)
					h := float32(0.25)
					for depth := 0; depth < 12; depth++ {
						q := 0
						nx, ny := cx-h, cy-h
						if x >= cx {
							q |= 1
							nx = cx + h
						}
						if y >= cy {
							q |= 2
							ny = cy + h
						}
						ch := device.LdDep(c, child, int(node)*4+q)
						if ch == -1 {
							// Insert body as leaf (encoded as -2-b).
							device.St(c, child, int(node)*4+q, int32(-2-b))
							break
						}
						if ch <= -2 {
							// Split: push existing body down.
							if nodes >= maxNodes-1 {
								break
							}
							nc := alloc(h / 2)
							device.St(c, child, int(node)*4+q, nc)
							ob := int(-2 - ch)
							ox := device.Ld(c, px, ob)
							oy := device.Ld(c, py, ob)
							oq := 0
							if ox >= nx {
								oq |= 1
							}
							if oy >= ny {
								oq |= 2
							}
							device.St(c, child, int(nc)*4+oq, ch)
							node, cx, cy, h = nc, nx, ny, h/2
							continue
						}
						node, cx, cy, h = ch, nx, ny, h/2
					}
					c.FLOP(12)
				}
				// Bottom-up mass summary (approximate: single pass).
				for id := nodes - 1; id >= 0; id-- {
					var m, sx, sy float32
					for q := 0; q < 4; q++ {
						ch := device.Ld(c, child, id*4+q)
						if ch == -1 {
							continue
						}
						if ch <= -2 {
							b := int(-2 - ch)
							m++
							sx += device.Ld(c, px, b)
							sy += device.Ld(c, py, b)
						} else {
							cm := device.Ld(c, mass, int(ch))
							m += cm
							sx += device.Ld(c, cmx, int(ch)) * cm
							sy += device.Ld(c, cmy, int(ch)) * cm
						}
					}
					if m > 0 {
						device.St(c, mass, id, m)
						device.St(c, cmx, id, sx/m)
						device.St(c, cmy, id, sy/m)
					}
					c.FLOP(12)
				}
			},
		})
		// Explicit tree copies — unavoidable in both system organizations.
		device.Memcpy(s, dChild, child)
		device.Memcpy(s, dCmx, cmx)
		device.Memcpy(s, dCmy, cmy)
		device.Memcpy(s, dMass, mass)
		device.Memcpy(s, dHalf, half)
		if !s.Unified() {
			device.Memcpy(s, dPx, px)
			device.Memcpy(s, dPy, py)
		}
		// GPU: tree-walk force kernel with an explicit traversal stack.
		s.Launch(device.KernelSpec{
			Name: "bh_forces", Grid: n / block, Block: block,
			ScratchBytes: 64 * 4,
			Func: func(t *device.Thread) {
				b := t.Global()
				x := device.Ld(t, dPx, b)
				y := device.Ld(t, dPy, b)
				var fx, fy float32
				stack := []int32{0}
				for len(stack) > 0 && len(stack) < 64 {
					node := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					m := device.Ld(t, dMass, int(node))
					nx := device.Ld(t, dCmx, int(node))
					ny := device.Ld(t, dCmy, int(node))
					h := device.Ld(t, dHalf, int(node))
					dx, dy := nx-x, ny-y
					d2 := dx*dx + dy*dy + 1e-4
					if 4*h*h < d2*0.25 || m <= 1 {
						// Far enough (or leaf-ish): apply the summary.
						inv := 1 / float32(math.Sqrt(float64(d2)))
						f := m * inv * inv * inv
						fx += f * dx
						fy += f * dy
						t.FLOP(12)
						continue
					}
					for q := 0; q < 4; q++ {
						ch := device.Ld(t, dChild, int(node)*4+q)
						if ch >= 0 {
							stack = append(stack, ch)
							t.ScratchOp(1)
						} else if ch <= -2 {
							ob := int(-2 - ch)
							ox := device.Ld(t, dPx, ob)
							oy := device.Ld(t, dPy, ob)
							ddx, ddy := ox-x, oy-y
							dd2 := ddx*ddx + ddy*ddy + 1e-4
							inv := 1 / float32(math.Sqrt(float64(dd2)))
							fx += inv * inv * inv * ddx
							fy += inv * inv * inv * ddy
							t.FLOP(12)
						}
					}
				}
				device.St(t, dAx, b, fx)
				device.St(t, dAy, b, fy)
			},
		})
		if !s.Unified() {
			device.Memcpy(s, ax, dAx)
			device.Memcpy(s, ay, dAy)
		}
		// CPU: integrate.
		s.CPUTask(device.CPUTaskSpec{
			Name: "bh_integrate", Threads: 1,
			Func: func(c *device.CPUThread) {
				const dt = 1e-4
				for b := 0; b < n; b++ {
					nvx := device.Ld(c, vx, b) + dt*device.Ld(c, ax, b)
					nvy := device.Ld(c, vy, b) + dt*device.Ld(c, ay, b)
					x := device.Ld(c, px, b) + dt*nvx
					y := device.Ld(c, py, b) + dt*nvy
					x = float32(math.Min(math.Max(float64(x), 0), 1))
					y = float32(math.Min(math.Max(float64(y), 0), 1))
					c.FLOP(8)
					device.St(c, vx, b, nvx)
					device.St(c, vy, b, nvy)
					device.St(c, px, b, x)
					device.St(c, py, b, y)
				}
			},
		})
	}
	s.EndROI()
	s.AddResult(device.ChecksumF32(px.V), device.ChecksumF32(py.V), float64(nodes))
}
