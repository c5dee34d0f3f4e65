package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the percentile is one or two outliers and moves from run to
// run with nothing changed in the program.
const minBeyond = 10

// pct is a percentile together with the sample count it was drawn from.
type pct struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// fails unless at least minBeyond samples rank above the returned one, so
// a p90 needs 100 samples and a p99 needs 1000.
func percentile(xs []float64, q float64) (pct, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return pct{}, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			q*100, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pct{Value: s[rank-1], N: n}, nil
}

// median is the middle of xs (mean of the two middles for even counts).
// Unlike percentile it applies no sample rule: it summarizes a handful of
// per-pass totals, each already an aggregate of a whole pass.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
