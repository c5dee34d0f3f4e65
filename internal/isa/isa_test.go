package isa

import (
	"testing"
	"unsafe"
)

func TestSummarize(t *testing.T) {
	tr := Trace{
		{Kind: OpCompute, N: 10},
		{Kind: OpCompute, N: 5},
		{Kind: OpLoad, Addr: 0, N: 4},
		{Kind: OpLoadDep, Addr: 8, N: 4},
		{Kind: OpStore, Addr: 16, N: 4},
		{Kind: OpAtomic, Addr: 24, N: 4},
		{Kind: OpScratch, N: 4},
		{Kind: OpSync},
	}
	s := Summarize(tr)
	if s.FLOPs != 15 {
		t.Fatalf("flops = %d", s.FLOPs)
	}
	if s.Loads != 2 {
		t.Fatalf("loads = %d", s.Loads)
	}
	if s.Stores != 1 || s.Atomics != 1 || s.ScratchOps != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMem covers every OpKind: exactly the four global-memory kinds reach
// the memory system.
func TestMem(t *testing.T) {
	want := map[OpKind]bool{
		OpCompute: false, OpLoad: true, OpLoadDep: true, OpStore: true,
		OpAtomic: true, OpScratch: false, OpSync: false,
	}
	if len(want) != int(OpSync)+1 {
		t.Fatalf("table covers %d kinds, want %d", len(want), OpSync+1)
	}
	for k, mem := range want {
		if k.Mem() != mem {
			t.Errorf("OpKind(%d).Mem() = %v, want %v", k, k.Mem(), mem)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Stats{}) {
		t.Fatalf("empty trace stats = %+v", s)
	}
}

func TestOpStaysCompact(t *testing.T) {
	// The trace format must stay compact: every op a kernel lane records
	// is written to the launch's lane arena and read once by the CTA
	// compiler, so its size sets the recording path's memory traffic.
	var op Op
	if got := unsafe.Sizeof(op); got > 16 {
		t.Fatalf("Op is %d bytes, want <= 16", got)
	}
}
