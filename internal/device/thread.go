package device

import (
	"repro/internal/isa"
	"repro/internal/memory"
)

// Rec is the access recorder shared by GPU threads and CPU task threads:
// the typed helpers (Ld, St, AtomicAdd, ...) record through it while
// performing the functional data access directly on the buffer slice.
// Recording is all it does: the Figure 4 footprint is touched later, on
// the timing thread, from what the timing models consume (a GPU CTA's
// compiled lines at dispatch, a CPU thread's trace once its task body
// returns).
type Rec interface {
	rec(op isa.Op)
}

// Thread is one GPU thread's execution context, passed to kernel functions.
type Thread struct {
	tr     isa.Trace
	cta    int
	lane   int // thread index within the CTA
	block  int // threads per CTA
	global int
	// children collects device-side launches (dynamic parallelism).
	children *[]KernelSpec
}

// LaunchChild enqueues a child kernel from device code — CUDA 5.0 dynamic
// parallelism, the construct Section VI of the paper discusses for
// producer-to-consumer programmability. Children start after the parent
// kernel completes (plus a device-side launch overhead) and the parent's
// handle completes only once all nested children have — matching CUDA's
// parent-exit synchronization semantics. The paper's cited caveat (launch
// overheads can outweigh the benefit) is modelled by the per-child
// overhead.
func (t *Thread) LaunchChild(k KernelSpec) {
	if t.children == nil {
		panic("device: LaunchChild outside a kernel launch")
	}
	*t.children = append(*t.children, k)
}

// CTA reports the thread's block index.
func (t *Thread) CTA() int { return t.cta }

// Lane reports the thread index within its block (threadIdx.x).
func (t *Thread) Lane() int { return t.lane }

// Block reports the block size (blockDim.x).
func (t *Thread) Block() int { return t.block }

// Global reports the global thread index (blockIdx.x*blockDim.x +
// threadIdx.x).
func (t *Thread) Global() int { return t.global }

// Sync records a CTA-wide barrier (__syncthreads). Functional execution runs
// threads of a CTA sequentially, so kernels must not rely on cross-thread
// scratch phase ordering; use atomics for intra-CTA combining.
func (t *Thread) Sync() { t.rec(isa.Op{Kind: isa.OpSync}) }

// FLOP records n arithmetic operations.
func (t *Thread) FLOP(n int) {
	if n > 0 {
		t.rec(isa.Op{Kind: isa.OpCompute, N: uint32(n)})
	}
}

// ScratchOp records n scratchpad (shared memory) accesses.
func (t *Thread) ScratchOp(n int) {
	for i := 0; i < n; i++ {
		t.rec(isa.Op{Kind: isa.OpScratch, N: 4})
	}
}

func (t *Thread) rec(op isa.Op) { t.tr = append(t.tr, op) }

// laneRecorder runs a kernel body once per lane of a CTA, recording every
// lane into one flat op arena that the launch reuses across its CTAs, so
// it grows to the launch's largest CTA and then stops allocating.
type laneRecorder struct {
	t     Thread
	fn    func(t *Thread)
	ends  []int       // ends[i] is lane i's end offset in the arena t.tr
	lanes []isa.Trace // per-lane views into the arena, returned by gen
}

// newLaneRecorder builds the recorder of one launch of fn with block
// threads per CTA. children collects device-side launches; nil makes
// LaunchChild panic, as it does outside a kernel.
func newLaneRecorder(block int, fn func(t *Thread), children *[]KernelSpec) *laneRecorder {
	return &laneRecorder{
		t:     Thread{block: block, children: children},
		fn:    fn,
		ends:  make([]int, block),
		lanes: make([]isa.Trace, block),
	}
}

// gen records CTA cta's lane traces. The traces alias the arena: they are
// valid until the next gen call.
func (r *laneRecorder) gen(cta int) []isa.Trace {
	t := &r.t
	t.cta = cta
	t.tr = t.tr[:0]
	for i := range r.lanes {
		t.lane = i
		t.global = cta*t.block + i
		r.fn(t)
		r.ends[i] = len(t.tr)
	}
	start := 0
	for i, end := range r.ends {
		r.lanes[i] = t.tr[start:end:end]
		start = end
	}
	return r.lanes
}

// CPUThread is one CPU software thread's execution context.
type CPUThread struct {
	tr  isa.Trace
	tid int
	n   int
}

// TID reports this software thread's index within the task.
func (c *CPUThread) TID() int { return c.tid }

// Threads reports the task's software thread count.
func (c *CPUThread) Threads() int { return c.n }

// FLOP records n arithmetic operations.
func (c *CPUThread) FLOP(n int) {
	if n > 0 {
		c.rec(isa.Op{Kind: isa.OpCompute, N: uint32(n)})
	}
}

func (c *CPUThread) rec(op isa.Op) { c.tr = append(c.tr, op) }

// record is the common instrumentation path for typed accesses.
func record[T any](q Rec, b *Buf[T], i int, kind isa.OpKind) {
	es := b.ElemSize()
	addr := b.A.Base + memory.Addr(i*es)
	q.rec(isa.Op{Kind: kind, Addr: addr, N: uint32(es)})
}

// LdN reads count consecutive elements of b starting at i as one access
// (split into line transactions by the timing models). Returns the slice.
func LdN[T any](q Rec, b *Buf[T], i, count int) []T {
	if count <= 0 {
		return nil
	}
	es := b.ElemSize()
	addr := b.A.Base + memory.Addr(i*es)
	q.rec(isa.Op{Kind: isa.OpLoad, Addr: addr, N: uint32(count * es)})
	return b.V[i : i+count]
}

// StN writes count consecutive elements of b starting at i from src as one
// access.
func StN[T any](q Rec, b *Buf[T], i int, src []T) {
	if len(src) == 0 {
		return
	}
	es := b.ElemSize()
	addr := b.A.Base + memory.Addr(i*es)
	q.rec(isa.Op{Kind: isa.OpStore, Addr: addr, N: uint32(len(src) * es)})
	copy(b.V[i:], src)
}

// Ld reads element i of b, recording the access.
func Ld[T any](q Rec, b *Buf[T], i int) T {
	record(q, b, i, isa.OpLoad)
	return b.V[i]
}

// LdDep reads element i of b as a dependent (serializing) load — use for
// pointer chasing on the CPU. On the GPU it behaves like Ld.
func LdDep[T any](q Rec, b *Buf[T], i int) T {
	record(q, b, i, isa.OpLoadDep)
	return b.V[i]
}

// St writes element i of b, recording the access.
func St[T any](q Rec, b *Buf[T], i int, v T) {
	record(q, b, i, isa.OpStore)
	b.V[i] = v
}

// AtomicAddF32 adds v to element i of b atomically (functionally immediate;
// recorded as a read-modify-write). Returns the old value.
func AtomicAddF32(q Rec, b *Buf[float32], i int, v float32) float32 {
	record(q, b, i, isa.OpAtomic)
	old := b.V[i]
	b.V[i] += v
	return old
}

// AtomicAddI32 adds v to element i of b atomically. Returns the old value.
func AtomicAddI32(q Rec, b *Buf[int32], i int, v int32) int32 {
	record(q, b, i, isa.OpAtomic)
	old := b.V[i]
	b.V[i] += v
	return old
}

// AtomicMinI32 lowers element i of b to v if smaller. Returns the old value.
func AtomicMinI32(q Rec, b *Buf[int32], i int, v int32) int32 {
	record(q, b, i, isa.OpAtomic)
	old := b.V[i]
	if v < old {
		b.V[i] = v
	}
	return old
}

// AtomicCASI32 compares-and-swaps element i of b. Returns the old value.
func AtomicCASI32(q Rec, b *Buf[int32], i int, want, repl int32) int32 {
	record(q, b, i, isa.OpAtomic)
	old := b.V[i]
	if old == want {
		b.V[i] = repl
	}
	return old
}
