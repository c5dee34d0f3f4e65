package workload

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestUniformGraphShape(t *testing.T) {
	g := UniformGraph(1000, 8, 1)
	if g.N != 1000 || len(g.RowPtr) != 1001 {
		t.Fatal("CSR shape wrong")
	}
	if g.M() < 4000 || g.M() > 13000 {
		t.Fatalf("edges = %d, want ~8000", g.M())
	}
	if int(g.RowPtr[1000]) != g.M() {
		t.Fatal("rowptr end wrong")
	}
	for _, c := range g.ColIdx {
		if c < 0 || int(c) >= g.N {
			t.Fatalf("edge target out of range: %d", c)
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	a := UniformGraph(500, 6, 42)
	b := UniformGraph(500, 6, 42)
	if a.M() != b.M() {
		t.Fatal("not deterministic")
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("edges differ")
		}
	}
}

func TestRMATGraphSkew(t *testing.T) {
	g := RMATGraph(1<<12, 8, 7)
	if g.M() != 8<<12 {
		t.Fatalf("edges = %d", g.M())
	}
	// Power-law-ish: the max degree should far exceed the average.
	maxDeg := int32(0)
	for v := 0; v < g.N; v++ {
		d := g.RowPtr[v+1] - g.RowPtr[v]
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 40 {
		t.Fatalf("RMAT not skewed: max degree %d", maxDeg)
	}
	// CSR integrity under quick-check-style sweep.
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			t.Fatal("rowptr not monotone")
		}
	}
}

func TestPointsMatrixGridRanges(t *testing.T) {
	pts := make([]float32, 100*4)
	Points(pts, 3)
	for _, v := range pts {
		if v < 0 || v >= 1 {
			t.Fatalf("point out of range: %v", v)
		}
	}
	m := make([]float32, 10*10)
	Matrix(m, 3)
	for _, v := range m {
		if v < -1 || v >= 1 {
			t.Fatalf("matrix out of range: %v", v)
		}
	}
	g := make([]float32, 32*32)
	Grid(g, 32, 3)
	for _, v := range g {
		if v < 0 || v >= 1.1 {
			t.Fatalf("grid value out of range: %v", v)
		}
	}
	seq := make([]int32, 100)
	Sequence(seq, 3)
	for _, v := range seq {
		if v < 0 || v > 3 {
			t.Fatalf("sequence code out of range: %d", v)
		}
	}
}

// Property: CSR arrays are always mutually consistent.
func TestCSRConsistencyProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := 16 + int(nRaw)%512
		d := 1 + int(dRaw)%16
		g := UniformGraph(n, d, seed)
		if len(g.RowPtr) != n+1 || g.RowPtr[0] != 0 {
			return false
		}
		if int(g.RowPtr[n]) != len(g.ColIdx) || len(g.ColIdx) != len(g.EdgeWeigh) {
			return false
		}
		for v := 0; v < n; v++ {
			if g.RowPtr[v] > g.RowPtr[v+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUniformGraphPresized checks that sizing the edge arrays up front
// keeps the graph identical to growing them edge by edge, with the same
// RNG draws, and that the capacity is the degree bound, never exceeded.
func TestUniformGraphPresized(t *testing.T) {
	for _, c := range []struct {
		n, degree int
		seed      int64
	}{{1000, 8, 31}, {500, 6, 201}, {300, 12, 17}, {64, 1, 5}} {
		g := UniformGraph(c.n, c.degree, c.seed)
		r := RNG(c.seed)
		var col []int32
		var w []float32
		for v := 0; v < c.n; v++ {
			d := c.degree/2 + r.Intn(c.degree+1)
			for e := 0; e < d; e++ {
				col = append(col, int32(r.Intn(c.n)))
				w = append(w, 1+float32(r.Intn(63)))
			}
			if int(g.RowPtr[v+1]) != len(col) {
				t.Fatalf("n=%d degree=%d: RowPtr[%d] = %d, want %d", c.n, c.degree, v+1, g.RowPtr[v+1], len(col))
			}
		}
		if !slices.Equal(g.ColIdx, col) || !slices.Equal(g.EdgeWeigh, w) {
			t.Fatalf("n=%d degree=%d: edges differ from the edge-by-edge graph", c.n, c.degree)
		}
		if want := c.n * (c.degree/2 + c.degree); cap(g.ColIdx) != want || cap(g.EdgeWeigh) != want {
			t.Fatalf("n=%d degree=%d: capacities %d/%d, want %d", c.n, c.degree, cap(g.ColIdx), cap(g.EdgeWeigh), want)
		}
	}
}
