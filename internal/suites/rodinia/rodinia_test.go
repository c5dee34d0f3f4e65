package rodinia

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1e-9 {
		return d < 1e-9
	}
	return d/m <= tol
}

// TestKmeansMatchesReference checks the simulated pipeline's final centers
// against a pure-Go re-implementation of the same Lloyd iterations.
func TestKmeansMatchesReference(t *testing.T) {
	dm := kmeansSize(bench.SizeSmall)
	pts := make([]float32, dm.n*dm.d)
	fillPoints(pts)

	// Reference: identical math, no simulator.
	centers := make([]float32, dm.k*dm.d)
	for c := 0; c < dm.k; c++ {
		copy(centers[c*dm.d:(c+1)*dm.d], pts[c*dm.d:(c+1)*dm.d])
	}
	assign := make([]int, dm.n)
	for it := 0; it < dm.iters; it++ {
		for i := 0; i < dm.n; i++ {
			best, bestD := 0, float32(math.MaxFloat32)
			for c := 0; c < dm.k; c++ {
				var dist float32
				for j := 0; j < dm.d; j++ {
					df := pts[i*dm.d+j] - centers[c*dm.d+j]
					dist += df * df
				}
				if dist < bestD {
					bestD, best = dist, c
				}
			}
			assign[i] = best
		}
		sums := make([]float64, dm.k*dm.d)
		counts := make([]int, dm.k)
		for i := 0; i < dm.n; i++ {
			for j := 0; j < dm.d; j++ {
				sums[assign[i]*dm.d+j] += float64(pts[i*dm.d+j])
			}
			counts[assign[i]]++
		}
		for c := 0; c < dm.k; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < dm.d; j++ {
				centers[c*dm.d+j] = float32(sums[c*dm.d+j] / float64(counts[c]))
			}
		}
	}
	var refCen, refAsg float64
	for _, v := range centers {
		refCen += float64(v)
	}
	for _, a := range assign {
		refAsg += float64(a)
	}

	_, res := bench.ExecuteWithResult(Kmeans{}, bench.ModeCopy, bench.SizeSmall)
	if !relClose(res[0], refCen, 1e-5) {
		t.Fatalf("centers digest %v != reference %v", res[0], refCen)
	}
	if res[1] != refAsg {
		t.Fatalf("assignment digest %v != reference %v", res[1], refAsg)
	}
}

// TestKmeansOrganizationsAgree: every organization must compute the same
// clustering (floating-point order differences aside).
func TestKmeansOrganizationsAgree(t *testing.T) {
	_, base := bench.ExecuteWithResult(Kmeans{}, bench.ModeCopy, bench.SizeSmall)
	for _, m := range []bench.Mode{bench.ModeLimitedCopy, bench.ModeAsyncStreams, bench.ModeParallelChunked} {
		_, res := bench.ExecuteWithResult(Kmeans{}, m, bench.SizeSmall)
		for i := range base {
			if !relClose(res[i], base[i], 1e-4) {
				t.Fatalf("%s digest[%d] = %v, want %v", m, i, res[i], base[i])
			}
		}
	}
}

// TestBFSMatchesHostBFS validates the frontier BFS against a host BFS on
// the identical generated graph.
func TestBFSMatchesHostBFS(t *testing.T) {
	n := bench.ScaleN(65536, bench.SizeSmall)
	g := workload.UniformGraph(n, 8, 31) // same seed as the benchmark
	ref := make([]int32, n)
	for i := range ref {
		ref[i] = -1
	}
	ref[0] = 0
	frontier := []int32{0}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for e := g.RowPtr[v]; e < g.RowPtr[v+1]; e++ {
				d := g.ColIdx[e]
				if ref[d] == -1 {
					ref[d] = ref[v] + 1
					next = append(next, d)
				}
			}
		}
		frontier = next
	}
	var want float64
	for _, v := range ref {
		want += float64(v)
	}
	_, res := bench.ExecuteWithResult(BFS{}, bench.ModeCopy, bench.SizeSmall)
	if res[0] != want {
		t.Fatalf("bfs cost digest = %v, want %v", res[0], want)
	}
}

// TestGaussianSolvesSystem substitutes the computed solution back into the
// original system.
func TestGaussianSolvesSystem(t *testing.T) {
	n := bench.ScaleSide(96, bench.SizeSmall)
	a := make([]float32, n*n)
	workload.Matrix(a, 51)
	aOrig := make([]float64, n*n)
	for i := range a {
		aOrig[i] = float64(a[i])
	}
	for i := 0; i < n; i++ {
		aOrig[i*n+i] += float64(n)
	}

	// Run the benchmark and reconstruct x from the digest? The digest is a
	// checksum; instead run the internal pipeline directly to get x.
	s := bench.SystemFor(bench.ModeLimitedCopy)
	Gaussian{}.Run(s, bench.ModeLimitedCopy, bench.SizeSmall)
	// Reference solve via plain Gaussian elimination on float64.
	ab := make([]float64, n*n)
	copy(ab, aOrig)
	bb := make([]float64, n)
	for i := range bb {
		bb[i] = 1
	}
	for k := 0; k < n-1; k++ {
		for r := k + 1; r < n; r++ {
			m := ab[r*n+k] / ab[k*n+k]
			for c := k; c < n; c++ {
				ab[r*n+c] -= m * ab[k*n+c]
			}
			bb[r] -= m * bb[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		acc := bb[i]
		for j := i + 1; j < n; j++ {
			acc -= ab[i*n+j] * x[j]
		}
		x[i] = acc / ab[i*n+i]
	}
	var ref float64
	for _, v := range x {
		ref += v
	}
	if !relClose(s.Result[0], ref, 1e-3) {
		t.Fatalf("gaussian solution digest %v, reference %v", s.Result[0], ref)
	}
}

// TestPathfinderMatchesDP validates the row-kernel DP against a host DP.
func TestPathfinderMatchesDP(t *testing.T) {
	cols := bench.ScaleN(65536, bench.SizeSmall)
	rows := 32
	g := make([]float32, rows*cols)
	workload.Grid(g, cols, 21)
	wall := make([]int32, rows*cols)
	for i, v := range g {
		wall[i] = int32(v * 10)
	}
	cur := make([]int32, cols)
	for c := 0; c < cols; c++ {
		cur[c] = wall[c]
	}
	next := make([]int32, cols)
	for r := 1; r < rows; r++ {
		for c := 0; c < cols; c++ {
			best := cur[c]
			if c > 0 && cur[c-1] < best {
				best = cur[c-1]
			}
			if c < cols-1 && cur[c+1] < best {
				best = cur[c+1]
			}
			next[c] = best + wall[r*cols+c]
		}
		cur, next = next, cur
	}
	var want float64
	for _, v := range cur {
		want += float64(v)
	}
	_, res := bench.ExecuteWithResult(Pathfinder{}, bench.ModeCopy, bench.SizeSmall)
	if res[0] != want {
		t.Fatalf("pathfinder digest = %v, want %v", res[0], want)
	}
}

// TestHotspotMatchesStencil validates the GPU stencil against a host
// implementation of the same update.
func TestHotspotMatchesStencil(t *testing.T) {
	rows := bench.ScaleSide(256, bench.SizeSmall)
	cols := 512
	iters := 4
	temp64 := make([]float32, rows*cols)
	workload.Grid(temp64, cols, 11)
	power := make([]float32, rows*cols)
	workload.Grid(power, cols, 12)
	cur := make([]float32, rows*cols)
	copy(cur, temp64)
	next := make([]float32, rows*cols)
	for it := 0; it < iters; it++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				i := r*cols + c
				v := cur[i]
				n, so, e, w := v, v, v, v
				if r > 0 {
					n = cur[i-cols]
				}
				if r < rows-1 {
					so = cur[i+cols]
				}
				if c > 0 {
					e = cur[i-1]
				}
				if c < cols-1 {
					w = cur[i+1]
				}
				next[i] = v + 0.2*(n+so+e+w-4*v) + 0.05*power[i]
			}
		}
		cur, next = next, cur
	}
	want := device.ChecksumF32(cur)
	_, res := bench.ExecuteWithResult(Hotspot{}, bench.ModeLimitedCopy, bench.SizeSmall)
	if !relClose(res[0], want, 1e-6) {
		t.Fatalf("hotspot digest = %v, want %v", res[0], want)
	}
}

// TestCopyVsLimitedFunctionalIdentity: for every rodinia benchmark the two
// baseline organizations must produce identical functional results — the
// port changes where data lives, never what is computed.
func TestCopyVsLimitedFunctionalIdentity(t *testing.T) {
	for _, b := range []bench.Benchmark{
		Kmeans{}, Backprop{}, Hotspot{}, Pathfinder{}, BFS{}, SRAD{},
		Gaussian{}, NW{}, LUD{}, Streamcluster{}, DWT2D{}, ParticleFilter{},
	} {
		b := b
		t.Run(b.Info().Name, func(t *testing.T) {
			t.Parallel()
			_, cv := bench.ExecuteWithResult(b, bench.ModeCopy, bench.SizeSmall)
			_, lv := bench.ExecuteWithResult(b, bench.ModeLimitedCopy, bench.SizeSmall)
			if len(cv) == 0 || len(cv) != len(lv) {
				t.Fatalf("digest shape: copy %d, limited %d", len(cv), len(lv))
			}
			for i := range cv {
				if cv[i] != lv[i] {
					t.Fatalf("digest[%d]: copy %v != limited %v", i, cv[i], lv[i])
				}
			}
		})
	}
}
