package bench

import "testing"

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeCopy: "copy", ModeLimitedCopy: "limited-copy",
		ModeAsyncStreams: "async-streams", ModeParallelChunked: "parallel-chunked",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d -> %q", m, m.String())
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Size
		ok   bool
	}{
		{"small", SizeSmall, true},
		{"medium", SizeMedium, true},
		{"large", 0, false},
		{"", 0, false},
		{"Small", 0, false},
		{"size(1)", 0, false},
	} {
		got, err := ParseSize(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("ParseSize(%q).String() = %q", tc.in, got.String())
		}
	}
}

func TestSystemForModes(t *testing.T) {
	if SystemFor(ModeCopy).Unified() || SystemFor(ModeAsyncStreams).Unified() {
		t.Fatal("copy modes must run on the discrete system")
	}
	if !SystemFor(ModeLimitedCopy).Unified() || !SystemFor(ModeParallelChunked).Unified() {
		t.Fatal("copy-free modes must run on the heterogeneous processor")
	}
}

func TestInfoSupports(t *testing.T) {
	i := Info{ExtraModes: []Mode{ModeAsyncStreams}}
	if !i.Supports(ModeCopy) || !i.Supports(ModeLimitedCopy) {
		t.Fatal("base modes always supported")
	}
	if !i.Supports(ModeAsyncStreams) || i.Supports(ModeParallelChunked) {
		t.Fatal("extra mode handling wrong")
	}
}

// TestTable2MatchesPaper pins the census aggregation to the exact numbers
// in the paper's Table II.
func TestTable2MatchesPaper(t *testing.T) {
	want := []Table2Row{
		{"lonestar", 14, 14, 13, 14, 13, 10},
		{"pannotia", 10, 10, 10, 10, 10, 0},
		{"parboil", 12, 8, 8, 8, 3, 1},
		{"rodinia", 22, 19, 18, 19, 6, 0},
		{"total", 58, 51, 49, 51, 32, 11},
	}
	got := Table2()
	if len(got) != len(want) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %s:\n got  %+v\n want %+v", want[i].Suite, got[i], want[i])
		}
	}
}

func TestCensus46WorkInSim(t *testing.T) {
	n := 0
	for _, e := range Census() {
		if e.WorksInSim {
			n++
		}
	}
	if n != 46 {
		t.Fatalf("working benchmarks = %d, want 46 (paper Section III-C)", n)
	}
}

func TestCensusImplementedSubsetWorks(t *testing.T) {
	for _, e := range Census() {
		if e.Implemented && !e.WorksInSim {
			t.Fatalf("%s/%s implemented but flagged as not working", e.Suite, e.Name)
		}
	}
}

func TestScaleN(t *testing.T) {
	if ScaleN(100, SizeSmall) != 100 || ScaleN(100, SizeMedium) != 400 {
		t.Fatal("ScaleN wrong")
	}
}
