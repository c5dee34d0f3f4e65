// Package isa defines the abstract instruction trace format shared by the
// CPU and GPU timing models. Benchmarks execute functionally as ordinary Go
// code; the access-recording layer in internal/device turns each software
// thread's loads, stores, atomics, and compute into a compact Op sequence
// that the timing models replay.
package isa

import "repro/internal/memory"

// OpKind discriminates trace operations.
type OpKind uint8

const (
	// OpCompute models N arithmetic operations (FLOPs) per lane.
	OpCompute OpKind = iota
	// OpLoad is a global-memory read of N bytes at Addr.
	OpLoad
	// OpLoadDep is a load whose value gates further progress (pointer
	// chase); the CPU model serializes on it instead of overlapping it in
	// the MLP window. The GPU model treats it like OpLoad (warps always
	// stall on use).
	OpLoadDep
	// OpStore is a global-memory write of N bytes at Addr.
	OpStore
	// OpAtomic is a read-modify-write of N bytes at Addr.
	OpAtomic
	// OpScratch is a GPU scratchpad (shared memory) access: occupies an
	// issue slot but never reaches the memory system. On the CPU it is a
	// register-file/stack access and is free.
	OpScratch
	// OpSync is a CTA-wide barrier on the GPU; a no-op on the CPU.
	OpSync
)

// Mem reports whether k is a global-memory op: one whose [Addr, Addr+N)
// reaches the memory system. Compute, scratch and sync ops carry an N too,
// but no address.
func (k OpKind) Mem() bool {
	return k == OpLoad || k == OpLoadDep || k == OpStore || k == OpAtomic
}

// Op is one replayable trace operation. Compact: 16 bytes.
type Op struct {
	Addr memory.Addr
	N    uint32 // FLOPs for OpCompute, bytes for memory ops
	Kind OpKind
}

// Trace is one software thread's (or one GPU lane's) ordered op sequence.
type Trace []Op

// Stats summarizes a trace.
type Stats struct {
	FLOPs      uint64
	Loads      uint64
	Stores     uint64
	Atomics    uint64
	ScratchOps uint64
}

// Summarize tallies a trace.
func Summarize(tr Trace) Stats {
	var s Stats
	for _, op := range tr {
		switch op.Kind {
		case OpCompute:
			s.FLOPs += uint64(op.N)
		case OpLoad, OpLoadDep:
			s.Loads++
		case OpStore:
			s.Stores++
		case OpAtomic:
			s.Atomics++
		case OpScratch:
			s.ScratchOps++
		}
	}
	return s
}
