// Package workload provides deterministic synthetic input generators for
// the benchmark suites: uniform and RMAT-like graphs in CSR form, dense
// matrices, n-dimensional point sets, and 2-D grids. All generators are
// seeded so every run of an experiment sees identical inputs.
package workload

import "math/rand"

// RNG returns a deterministic source for the given seed.
func RNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Graph is a directed graph in CSR form.
type Graph struct {
	N         int     // vertices
	RowPtr    []int32 // len N+1
	ColIdx    []int32 // len M
	EdgeWeigh []float32
}

// M reports the edge count.
func (g *Graph) M() int { return len(g.ColIdx) }

// UniformGraph generates a graph with n vertices and roughly degree edges
// per vertex, endpoints uniform — the regular end of the graph spectrum.
func UniformGraph(n, degree int, seed int64) *Graph {
	r := RNG(seed)
	// A vertex has at most degree/2+degree edges: size the edge arrays for
	// that once rather than let append regrow them.
	maxM := n * (degree/2 + degree)
	g := &Graph{N: n, RowPtr: make([]int32, n+1),
		ColIdx: make([]int32, 0, maxM), EdgeWeigh: make([]float32, 0, maxM)}
	for v := 0; v < n; v++ {
		d := degree/2 + r.Intn(degree+1)
		for e := 0; e < d; e++ {
			g.ColIdx = append(g.ColIdx, int32(r.Intn(n)))
			g.EdgeWeigh = append(g.EdgeWeigh, 1+float32(r.Intn(63)))
		}
		g.RowPtr[v+1] = int32(len(g.ColIdx))
	}
	return g
}

// RMATGraph generates a skewed, power-law-ish graph (Lonestar/Pannotia
// style irregularity): high-degree hubs plus a long tail.
func RMATGraph(n, avgDegree int, seed int64) *Graph {
	r := RNG(seed)
	m := n * avgDegree
	// Kronecker-style edge placement with the classic (0.57,0.19,0.19,0.05)
	// quadrant probabilities.
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, m)
	levels := 0
	for 1<<levels < n {
		levels++
	}
	for i := 0; i < m; i++ {
		var u, v int
		for l := 0; l < levels; l++ {
			p := r.Float64()
			switch {
			case p < 0.57:
				// top-left
			case p < 0.76:
				v |= 1 << l
			case p < 0.95:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n {
			u %= n
		}
		if v >= n {
			v %= n
		}
		edges = append(edges, edge{int32(u), int32(v)})
	}
	// Bucket into CSR.
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.u]++
	}
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] = g.RowPtr[v] + deg[v]
	}
	g.ColIdx = make([]int32, m)
	g.EdgeWeigh = make([]float32, m)
	cursor := make([]int32, n)
	copy(cursor, g.RowPtr[:n])
	for _, e := range edges {
		g.ColIdx[cursor[e.u]] = e.v
		g.EdgeWeigh[cursor[e.u]] = 1 + float32(e.v%63)
		cursor[e.u]++
	}
	return g
}

// Symmetrize returns the undirected closure of g: every edge appears in
// both directions (duplicates allowed). Coloring/MIS-style algorithms need
// symmetric adjacency to be meaningful.
func Symmetrize(g *Graph) *Graph {
	deg := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		for e := g.RowPtr[v]; e < g.RowPtr[v+1]; e++ {
			deg[v]++
			deg[g.ColIdx[e]]++
		}
	}
	out := &Graph{N: g.N, RowPtr: make([]int32, g.N+1)}
	for v := 0; v < g.N; v++ {
		out.RowPtr[v+1] = out.RowPtr[v] + deg[v]
	}
	m := int(out.RowPtr[g.N])
	out.ColIdx = make([]int32, m)
	out.EdgeWeigh = make([]float32, m)
	cursor := make([]int32, g.N)
	copy(cursor, out.RowPtr[:g.N])
	add := func(u, v int32, w float32) {
		out.ColIdx[cursor[u]] = v
		out.EdgeWeigh[cursor[u]] = w
		cursor[u]++
	}
	for v := int32(0); v < int32(g.N); v++ {
		for e := g.RowPtr[v]; e < g.RowPtr[v+1]; e++ {
			add(v, g.ColIdx[e], g.EdgeWeigh[e])
			add(g.ColIdx[e], v, g.EdgeWeigh[e])
		}
	}
	return out
}

// Points fills dst with float32 features in [0, 1), one draw per element:
// n points of dim features are a dst of n*dim.
func Points(dst []float32, seed int64) {
	r := RNG(seed)
	for i := range dst {
		dst[i] = r.Float32()
	}
}

// Matrix fills dst with float32 values in [-1, 1), one draw per element.
func Matrix(dst []float32, seed int64) {
	r := RNG(seed)
	for i := range dst {
		dst[i] = 2*r.Float32() - 1
	}
}

// Grid fills dst, a row-major field len(dst)/cols rows by cols, with smooth
// spatial variation, as a stand-in for the image/temperature inputs of
// hotspot, srad, and stencil.
func Grid(dst []float32, cols int, seed int64) {
	r := RNG(seed)
	// Low-frequency base + noise.
	fx := 1 + r.Intn(5)
	fy := 1 + r.Intn(5)
	for y := 0; y*cols < len(dst); y++ {
		row := dst[y*cols : (y+1)*cols]
		for x := range row {
			base := float32((x*fx+y*fy)%97) / 97
			row[x] = base + 0.1*r.Float32()
		}
	}
}

// Sequence fills dst with a random ACGT string as int32 codes (mummer-style).
func Sequence(dst []int32, seed int64) {
	r := RNG(seed)
	for i := range dst {
		dst[i] = int32(r.Intn(4))
	}
}
