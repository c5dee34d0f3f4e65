package rodinia

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// TestCFDMatchesHostReplica replays the flux/time-step iterations on the
// host and compares digests.
func TestCFDMatchesHostReplica(t *testing.T) {
	nel := bench.ScaleN(16384, bench.SizeSmall)
	const nvar, nnb = 5, 4
	iters := 3
	vars := make([]float32, nel*nvar)
	workload.Points(vars, 121)
	nb := make([]int32, nel*nnb)
	rng := workload.RNG(122)
	for i := range nb {
		nb[i] = int32(rng.Intn(nel))
	}
	flux := make([]float32, nel*nvar)
	for it := 0; it < iters; it++ {
		for e := 0; e < nel; e++ {
			for v := 0; v < nvar; v++ {
				flux[e*nvar+v] = vars[e*nvar+v]
			}
			for k := 0; k < nnb; k++ {
				j := int(nb[e*nnb+k])
				for v := 0; v < nvar; v++ {
					flux[e*nvar+v] += 0.1 * (vars[j*nvar+v] - vars[e*nvar+v])
				}
			}
		}
		for e := 0; e < nel; e++ {
			for v := 0; v < nvar; v++ {
				vars[e*nvar+v] = 0.9*flux[e*nvar+v] + 0.01
			}
		}
	}
	var want float64
	for _, v := range vars {
		want += float64(v)
	}
	_, res := bench.ExecuteWithResult(CFD{}, bench.ModeLimitedCopy, bench.SizeSmall)
	if res[0] != want {
		t.Fatalf("cfd digest = %v, want %v", res[0], want)
	}
}

// TestHeartwallPointsStayInBounds: tracked points must stay inside the
// frame after every update.
func TestHeartwallPointsStayInBounds(t *testing.T) {
	npts := float64(bench.ScaleN(256, bench.SizeSmall))
	imgSide, patch := 512.0, 16.0
	_, res := bench.ExecuteWithResult(Heartwall{}, bench.ModeLimitedCopy, bench.SizeSmall)
	maxSum := npts * (imgSide - 2*patch)
	if res[0] < 0 || res[0] > maxSum || res[1] < 0 || res[1] > maxSum {
		t.Fatalf("points out of bounds: sums (%v, %v), limit %v", res[0], res[1], maxSum)
	}
}

// TestMummerMatchesReplica replays the table walk on the host.
func TestMummerMatchesReplica(t *testing.T) {
	refLen := bench.ScaleN(65536, bench.SizeSmall)
	nq := bench.ScaleN(2048, bench.SizeSmall)
	qLen := 48
	states := refLen / 4
	table := make([]int32, states*4)
	depth := make([]int32, states)
	rng := workload.RNG(141)
	for i := range table {
		table[i] = int32(rng.Intn(states))
	}
	for i := range depth {
		depth[i] = int32(rng.Intn(qLen))
	}
	queries := make([]int32, nq*qLen)
	workload.Sequence(queries, 142)
	var want float64
	for q := 0; q < nq; q++ {
		state := int32(0)
		best := int32(0)
		for j := 0; j < qLen; j++ {
			sym := queries[q*qLen+j]
			state = table[int(state)*4+int(sym)]
			if d := depth[state]; d > best {
				best = d
			}
		}
		want += float64(best)
	}
	_, res := bench.ExecuteWithResult(MummerGPU{}, bench.ModeLimitedCopy, bench.SizeSmall)
	if res[0] != want {
		t.Fatalf("mummer digest = %v, want %v", res[0], want)
	}
}

// TestPFFloatAgreesAcrossMachines: the optimized particle filter is
// digest-identical between machines (covered globally, pinned here because
// its partial-sum path exercises Device-buffer faulting on one machine
// only, which must never leak into results).
func TestPFFloatAgreesAcrossMachines(t *testing.T) {
	_, cv := bench.ExecuteWithResult(ParticleFilterFloat{}, bench.ModeCopy, bench.SizeSmall)
	_, lv := bench.ExecuteWithResult(ParticleFilterFloat{}, bench.ModeLimitedCopy, bench.SizeSmall)
	for i := range cv {
		if cv[i] != lv[i] {
			t.Fatalf("digest[%d]: %v != %v", i, cv[i], lv[i])
		}
	}
}
