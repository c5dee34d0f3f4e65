package parboil

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// TestPBFSMatchesHostBFS validates the queue-based BFS against a host BFS
// on the identical graph.
func TestPBFSMatchesHostBFS(t *testing.T) {
	n := bench.ScaleN(32768, bench.SizeSmall)
	g := workload.UniformGraph(n, 8, 18)
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
	_, res := bench.ExecuteWithResult(PBFS{}, bench.ModeCopy, bench.SizeSmall)
	if res[0] != want {
		t.Fatalf("pbfs digest = %v, want %v", res[0], want)
	}
}

// TestMRIQMatchesHostReplica validates the Q-matrix kernel against the same
// arithmetic on the host.
func TestMRIQMatchesHostReplica(t *testing.T) {
	voxels := bench.ScaleN(16384, bench.SizeSmall)
	const K = 1024
	kx := make([]float32, K)
	workload.Points(kx, 26)
	phi := make([]float32, K)
	workload.Points(phi, 27)
	x := make([]float32, voxels)
	workload.Points(x, 28)
	var wantRe, wantIm float64
	for v := 0; v < voxels; v++ {
		var re, im float32
		for k := 0; k < K; k++ {
			arg := kx[k] * x[v]
			re += phi[k] * (1 - arg*arg/2)
			im += phi[k] * arg
		}
		wantRe += float64(re)
		wantIm += float64(im)
	}
	_, res := bench.ExecuteWithResult(MRIQ{}, bench.ModeLimitedCopy, bench.SizeSmall)
	if res[0] != wantRe || res[1] != wantIm {
		t.Fatalf("mri-q digest = (%v, %v), want (%v, %v)", res[0], res[1], wantRe, wantIm)
	}
}
