package memory

import "testing"

func TestTablePageBoundaries(t *testing.T) {
	var tb Table[int]
	for _, i := range []uint64{4095, 4096, 4097} {
		*tb.At(i) = int(i)
	}
	if len(tb.pages) != 2 || tb.pages[0] == nil || tb.pages[1] == nil {
		t.Fatalf("blocks 4095-4097 should span pages 0 and 1, got %d page slots", len(tb.pages))
	}
	if got := tb.pages[0][4095]; got != 4095 {
		t.Fatalf("block 4095 = %d on page 0, want 4095", got)
	}
	if got := tb.pages[1][0]; got != 4096 {
		t.Fatalf("block 4096 = %d at page 1 slot 0, want 4096", got)
	}
	if got := tb.pages[1][1]; got != 4097 {
		t.Fatalf("block 4097 = %d at page 1 slot 1, want 4097", got)
	}
	for _, i := range []uint64{4095, 4096, 4097} {
		if got := *tb.At(i); got != int(i) {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
}

func TestTableAllocatesOnlyTouchedPage(t *testing.T) {
	// The discrete GPU space starts at 4 GiB: with 128 B lines its first
	// line is block 33,554,432, on page 8192.
	const gpuBase = uint64(4<<30) / 128
	var tb Table[bool]
	*tb.At(gpuBase) = true
	allocated := 0
	for _, pg := range tb.pages {
		if pg != nil {
			allocated++
		}
	}
	if allocated != 1 || tb.pages[gpuBase/TablePage] == nil {
		t.Fatalf("first At at the GPU base allocated %d pages, want only page %d", allocated, gpuBase/TablePage)
	}
	if *tb.At(gpuBase - 1) || !*tb.At(gpuBase) {
		t.Fatal("At disagrees with what was set")
	}
}

func TestTableEachAscending(t *testing.T) {
	var tb Table[uint8]
	set := []uint64{3 * TablePage, 5, 3*TablePage + 7, TablePage - 1}
	for _, i := range set {
		*tb.At(i) = 1
	}
	var seen []uint64
	prev, first := uint64(0), true
	tb.Each(func(i uint64, v *uint8) {
		if !first && i <= prev {
			t.Fatalf("Each visited block %d after %d", i, prev)
		}
		prev, first = i, false
		if *v != 0 {
			seen = append(seen, i)
		}
	})
	want := []uint64{5, TablePage - 1, 3 * TablePage, 3*TablePage + 7}
	if len(seen) != len(want) {
		t.Fatalf("Each found %v, want %v", seen, want)
	}
	for k := range want {
		if seen[k] != want[k] {
			t.Fatalf("Each found %v, want %v", seen, want)
		}
	}
}
