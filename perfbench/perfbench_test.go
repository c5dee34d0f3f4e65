package main

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		q       float64
		n       int
		ok      bool
		wantVal float64
	}{
		{0.5, 19, false, 0},
		{0.5, 20, true, 10},
		{0.9, 99, false, 0},
		{0.9, 100, true, 90},
		{0.9, 250, true, 225},
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && (got.Value != tc.wantVal || got.N != tc.n) {
			t.Errorf("p%g of %d samples = %+v, want value %v n %d", tc.q*100, tc.n, got, tc.wantVal, tc.n)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := seq(30)
	if _, err := percentile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(xs, seq(30)) {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// testClasses is the stream's key set: 10 runs, then 6 sweeps.
var testClasses = []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}

func TestStreamSameSeedSameStream(t *testing.T) {
	a, b := genStream(7, testClasses, 160), genStream(7, testClasses, 160)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, genStream(8, testClasses, 160)) {
		t.Fatal("different seeds gave the same stream")
	}
}

// The share of requests going to each class must not depend on the seed,
// or a seed's pass cost would reflect its class mix.
func TestStreamClassShareFixed(t *testing.T) {
	share := func(seed int64) int {
		n := 0
		for _, k := range genStream(seed, testClasses, 160) {
			n += testClasses[k]
		}
		return n
	}
	want := share(1)
	for seed := int64(2); seed <= 20; seed++ {
		if got := share(seed); got != want {
			t.Fatalf("seed %d sends %d sweep requests, seed 1 sends %d", seed, got, want)
		}
	}
}

func TestStreamCoversEveryKey(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := genStream(seed, testClasses, 160)
		if len(s) != 160 {
			t.Fatalf("seed %d: stream length %d, want 160", seed, len(s))
		}
		seen := map[int]int{}
		for _, k := range s {
			if k < 0 || k >= 16 {
				t.Fatalf("seed %d: key %d out of range", seed, k)
			}
			seen[k]++
		}
		if len(seen) != 16 {
			t.Fatalf("seed %d: %d distinct keys, want all 16 so every pass computes the same misses", seed, len(seen))
		}
	}
}

func TestStreamKeysDistinct(t *testing.T) {
	keys := streamKeys(func(string) []string { return []string{"copy", "limited-copy"} }, 2)
	if len(keys) != 4*2+6 {
		t.Fatalf("%d keys, want 8 runs + 6 pair sweeps", len(keys))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		id := k.path + string(k.body)
		if seen[id] {
			t.Fatalf("duplicate key %s", id)
		}
		seen[id] = true
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1_fast64", "repro/internal/core.(*Collector).Touch", "repro/internal/sim.(*Engine).Run"}, "core"},
		{[]string{"repro/internal/suites/rodinia.kmeansKernel.func1", "repro/internal/device.(*Thread).Ld"}, "suites"},
		{[]string{"syscall.Syscall", "net/http.(*Client).Do", "main.(*serveReplay).post"}, "perfbench"},
		{[]string{"runtime.gcBgMarkWorker"}, "go"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%s) = %q, want %q", strings.Join(tc.frames, " < "), got, tc.want)
		}
	}
}

func TestIsRow(t *testing.T) {
	for line, want := range map[string]bool{
		"parboil/spmv             copy      100.0%   0.0%":      true,
		"  rodinia/backprop       async-streams measured":       true,
		"                         limited    12.1%   0.0% 0.0%": true,
		"geomean limited-copy footprint: 41.3% of copy":         false,
		"rodinia/kmeans           copy      100.0%":             false,
	} {
		if got := isRow(line); got != want {
			t.Errorf("isRow(%q) = %v, want %v", line, got, want)
		}
	}
}

// flaky reports an exact count that changes on its third pass.
type flaky struct{ passes int }

func (f *flaky) name() string     { return "flaky" }
func (f *flaky) minPasses() int   { return 3 }
func (f *flaky) setup(bool) error { return nil }
func (f *flaky) warm() error      { return nil }
func (f *flaky) teardown()        {}
func (f *flaky) pass(_ context.Context, p *passOut) error {
	f.passes++
	p.ops++
	p.counts["sim.events"] = 100
	if f.passes == 3 {
		p.counts["sim.events"] = 101
	}
	return nil
}

func TestMeasureFailsOnChangedExactCount(t *testing.T) {
	_, err := measure(&flaky{}, 0, time.Now(), nil)
	if err == nil || !strings.Contains(err.Error(), "sim.events = 101") {
		t.Fatalf("measure err = %v, want an exact-count mismatch on sim.events", err)
	}
}

func TestSweepMemCheckNeedsRowsInEveryFigure(t *testing.T) {
	row := "parboil/spmv             copy      100.0%   0.0%"
	w := &sweepMem{expected: map[string]bool{row: true}}
	figs := []string{row, row, row, row, row, row}
	if err := w.check(figs); err != nil {
		t.Fatalf("six figures with a known row: %v", err)
	}
	figs[2] = "header only\ngeomean copy 100.0%"
	if err := w.check(figs); err == nil || !strings.Contains(err.Error(), "Fig 6 rendered no per-benchmark row") {
		t.Fatalf("figure without rows: err = %v, want Fig 6 reported", err)
	}
	figs[2] = "rodinia/nw               copy       99.9%   0.0%"
	if err := w.check(figs); err == nil || !strings.Contains(err.Error(), "Fig 6 row not in results_small.txt") {
		t.Fatalf("unknown row: err = %v, want Fig 6 reported", err)
	}
}

func TestSampleRSS(t *testing.T) {
	stop := sampleRSS()
	ballast := make([]byte, 64<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	peak := stop()
	if peak < float64(len(ballast)) {
		t.Fatalf("peak resident set %.0f bytes, below the %d bytes just touched", peak, len(ballast))
	}
}
