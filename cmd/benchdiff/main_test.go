package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		name, in string
		want     map[string]Result
	}{
		{
			name: "plain benchmem row",
			in:   "BenchmarkCacheHit-8   \t12345678\t       95.2 ns/op\t       0 B/op\t       0 allocs/op\n",
			want: map[string]Result{"BenchmarkCacheHit": {NsPerOp: 95.2}},
		},
		{
			name: "custom metric columns between ns/op and B/op",
			in:   "BenchmarkFig3-2   \t1\t5421630334 ns/op\t 0.8123 parallel_norm\t 12.00 sim_ms\t3124066344 B/op\t990898 allocs/op\n",
			want: map[string]Result{"BenchmarkFig3": {NsPerOp: 5421630334, BytesPerOp: 3124066344, AllocsPerOp: 990898}},
		},
		{
			name: "duplicate sub-benchmark keeps the first",
			in: "BenchmarkSweepSmall/jobs=1-1\t1\t100 ns/op\t5678 B/op\t123 allocs/op\n" +
				"BenchmarkSweepSmall/jobs=1#01-1\t1\t200 ns/op\t9999 B/op\t999 allocs/op\n",
			want: map[string]Result{"BenchmarkSweepSmall/jobs=1": {NsPerOp: 100, BytesPerOp: 5678, AllocsPerOp: 123}},
		},
		{
			name: "missing -benchmem",
			in:   "BenchmarkEngineThroughput-4\t1000000\t13.5 ns/op\n",
			want: map[string]Result{"BenchmarkEngineThroughput": {NsPerOp: 13.5, BytesPerOp: -1, AllocsPerOp: -1}},
		},
		{
			name: "non-benchmark lines ignored",
			in:   "goos: linux\nPASS\nok  \trepro/internal/sim\t1.2s\n",
			want: map[string]Result{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseBench(strings.NewReader(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("parseBench = %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestGate(t *testing.T) {
	row := func(bytes, allocs int64) Result { return Result{NsPerOp: 1, BytesPerOp: bytes, AllocsPerOp: allocs} }
	cases := []struct {
		name     string
		now, was Result
		want     string
	}{
		{"unchanged", row(4096, 3), row(4096, 3), "ok"},
		{"improved", row(0, 0), row(64, 1), "ok"},
		{"zero-alloc path grows one", row(16, 1), row(0, 0), "FAIL allocs"},
		{"zero-byte path grows bytes", row(8, 0), row(0, 0), "FAIL B/op"},
		{"small B/op gates exactly", row(49, 1), row(48, 1), "FAIL B/op"},
		{"bigger objects, same count", row(5000, 3), row(4096, 3), "FAIL B/op"},
		{"sweep allocs within 2%", row(9660362720, 7884660+7884660/50), row(9660362720, 7884660), "ok"},
		{"sweep allocs past 2%", row(9660362720, 7884660+7884660/50+1), row(9660362720, 7884660), "FAIL allocs"},
		{"sweep B/op within 2%", row(9660362720+9660362720/50, 7884660), row(9660362720, 7884660), "ok"},
		{"sweep B/op past 2%", row(9660362720+9660362720/50+1, 7884660), row(9660362720, 7884660), "FAIL B/op"},
		{"no -benchmem now", row(-1, -1), row(0, 0), "no -benchmem"},
		{"no -benchmem in baseline", row(0, 0), row(-1, -1), "no -benchmem"},
	}
	for _, c := range cases {
		if got := gate(c.now, c.was); got != c.want {
			t.Errorf("%s: gate = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRefresh(t *testing.T) {
	row := func(ns float64, bytes, allocs int64) Result {
		return Result{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	}
	cases := []struct {
		name     string
		now, was Result
		want     Result
	}{
		{"sweep noise up keeps the gate", row(2, 441000000, 502674), row(1, 441000000, 502668), row(2, 441000000, 502668)},
		{"sweep noise down keeps the gate", row(2, 440000000, 502662), row(1, 441000000, 502668), row(2, 441000000, 502668)},
		{"sweep edge of headroom keeps the gate", row(2, 1000+20, 1000-20), row(1, 1000, 1000), row(2, 1000, 1000)},
		{"sweep past headroom up takes observed", row(2, 1000+21, 1000), row(1, 1000, 1000), row(2, 1000+21, 1000)},
		{"sweep past headroom down takes observed", row(2, 1000, 1000-21), row(1, 1000, 1000), row(2, 1000, 1000-21)},
		{"small values refresh exactly", row(2, 48, 1), row(1, 64, 2), row(2, 48, 1)},
		{"unchanged small row", row(2, 0, 0), row(1, 0, 0), row(2, 0, 0)},
	}
	for _, c := range cases {
		if got := refresh(c.now, c.was); got != c.want {
			t.Errorf("%s: refresh = %+v, want %+v", c.name, got, c.want)
		}
	}
}
