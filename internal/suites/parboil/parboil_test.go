package parboil

import (
	"math"
	"testing"

	"repro/internal/bench"
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

// TestSpMVMatchesReference validates the CSR kernel against a host SpMV on
// the identical generated matrix.
func TestSpMVMatchesReference(t *testing.T) {
	n := bench.ScaleN(32768, bench.SizeSmall)
	g := workload.UniformGraph(n, 12, 17)
	y := make([]float32, n)
	for r := 0; r < n; r++ {
		var acc float32
		for e := g.RowPtr[r]; e < g.RowPtr[r+1]; e++ {
			acc += g.EdgeWeigh[e] * 1.0 // x == all ones
		}
		y[r] = acc
	}
	var want float64
	for _, v := range y {
		want += float64(v)
	}
	_, res := bench.ExecuteWithResult(SpMV{}, bench.ModeCopy, bench.SizeSmall)
	if !relClose(res[0], want, 1e-6) {
		t.Fatalf("spmv digest = %v, want %v", res[0], want)
	}
}

// TestSGEMMMatchesReference validates the tiled kernel against a naive
// host matrix multiply.
func TestSGEMMMatchesReference(t *testing.T) {
	n := bench.ScaleSide(192, bench.SizeSmall)
	a := make([]float32, n*n)
	workload.Matrix(a, 23)
	bm := make([]float32, n*n)
	workload.Matrix(bm, 24)
	var want float64
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += a[r*n+k] * bm[k*n+c]
			}
			want += float64(acc)
		}
	}
	_, res := bench.ExecuteWithResult(SGEMM{}, bench.ModeLimitedCopy, bench.SizeSmall)
	// The kernel accumulates tile by tile in the same order, so digests
	// agree tightly.
	if !relClose(res[0], want, 1e-4) {
		t.Fatalf("sgemm digest = %v, want %v", res[0], want)
	}
}

// TestStencilMatchesReference replays the same 7-point updates on the host.
func TestStencilMatchesReference(t *testing.T) {
	nx, ny, nz := 512, bench.ScaleSide(256, bench.SizeSmall), 4
	iters := 4
	cells := nx * ny * nz
	cur := make([]float32, cells)
	workload.Grid(cur, nx, 13)
	next := make([]float32, cells)
	for it := 0; it < iters; it++ {
		for i := 0; i < cells; i++ {
			z := i / (nx * ny)
			rem := i % (nx * ny)
			y, x := rem/nx, rem%nx
			v := cur[i]
			acc := -6 * v
			if x > 0 {
				acc += cur[i-1]
			}
			if x < nx-1 {
				acc += cur[i+1]
			}
			if y > 0 {
				acc += cur[i-nx]
			}
			if y < ny-1 {
				acc += cur[i+nx]
			}
			if z > 0 {
				acc += cur[i-nx*ny]
			}
			if z < nz-1 {
				acc += cur[i+nx*ny]
			}
			next[i] = v + 0.1*acc
		}
		cur, next = next, cur
	}
	var want float64
	for _, v := range cur {
		want += float64(v)
	}
	_, res := bench.ExecuteWithResult(Stencil{}, bench.ModeCopy, bench.SizeSmall)
	if !relClose(res[0], want, 1e-6) {
		t.Fatalf("stencil digest = %v, want %v", res[0], want)
	}
}

// TestFFTEnergyAndIdentity: the two organizations agree exactly, and the
// butterfly network must grow signal energy deterministically (a replica of
// the exact same stages on the host matches bit for bit).
func TestFFTMatchesHostReplica(t *testing.T) {
	batch := bench.ScaleSide(512, bench.SizeSmall) * 2
	const fftN = 256
	total := batch * fftN
	re := make([]float32, total)
	im := make([]float32, total)
	workload.Points(re, 33)

	bits := 0
	for 1<<bits < fftN {
		bits++
	}
	rev := make([]int, fftN)
	for i := 0; i < fftN; i++ {
		r := 0
		for j := 0; j < bits; j++ {
			if i&(1<<j) != 0 {
				r |= 1 << (bits - 1 - j)
			}
		}
		rev[i] = r
	}
	re2 := make([]float32, total)
	im2 := make([]float32, total)
	for b := 0; b < batch; b++ {
		for k := 0; k < fftN; k++ {
			re2[b*fftN+k] = re[b*fftN+rev[k]]
			im2[b*fftN+k] = im[b*fftN+rev[k]]
		}
	}
	src, dst := [2][]float32{re2, im2}, [2][]float32{re, im}
	for span := 1; span < fftN; span *= 2 {
		for i := 0; i < total/2; i++ {
			b := i / (fftN / 2)
			p := i % (fftN / 2)
			grp := p / span
			off := p % span
			i0 := b*fftN + grp*2*span + off
			i1 := i0 + span
			ar, ai := src[0][i0], src[1][i0]
			br, bi := src[0][i1], src[1][i1]
			w := float32(off) / float32(2*span)
			tr := br*(1-w) + bi*w
			ti := bi*(1-w) - br*w
			dst[0][i0], dst[1][i0] = ar+tr, ai+ti
			dst[0][i1], dst[1][i1] = ar-tr, ai-ti
		}
		src, dst = dst, src
	}
	var wantRe, wantIm float64
	for i := 0; i < total; i++ {
		wantRe += float64(src[0][i])
		wantIm += float64(src[1][i])
	}
	_, res := bench.ExecuteWithResult(FFT{}, bench.ModeCopy, bench.SizeSmall)
	if !relClose(res[0], wantRe, 1e-6) || !relClose(res[1], wantIm, 1e-6) {
		t.Fatalf("fft digest = (%v, %v), want (%v, %v)", res[0], res[1], wantRe, wantIm)
	}
}

// TestParboilCopyVsLimitedIdentity: the port never changes results.
func TestParboilCopyVsLimitedIdentity(t *testing.T) {
	for _, b := range []bench.Benchmark{Stencil{}, SpMV{}, SGEMM{}, FFT{}} {
		b := b
		t.Run(b.Info().Name, func(t *testing.T) {
			t.Parallel()
			_, cv := bench.ExecuteWithResult(b, bench.ModeCopy, bench.SizeSmall)
			_, lv := bench.ExecuteWithResult(b, bench.ModeLimitedCopy, bench.SizeSmall)
			for i := range cv {
				if cv[i] != lv[i] {
					t.Fatalf("digest[%d]: copy %v != limited %v", i, cv[i], lv[i])
				}
			}
		})
	}
}
