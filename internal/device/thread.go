package device

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/memory"
)

// Thread is one thread's execution context: a GPU lane passed to kernel
// functions, or a CPU software thread passed to a task body (CPUThread),
// which is a lane of a one-CTA grid of Threads() lanes. The typed helpers
// (Ld, St, AtomicAdd, ...) append each access to its trace while performing
// the functional data access directly on the buffer slice. Recording is a
// single concrete append that inlines into the kernel body; the Figure 4
// footprint is touched later, on the timing thread, from what the timing
// models consume (a GPU CTA's compiled lines at dispatch, a CPU thread's
// trace once its task body returns).
type Thread struct {
	tr     isa.Trace
	cta    int
	lane   int // thread index within the CTA
	block  int // threads per CTA
	global int
	// children collects device-side launches (dynamic parallelism); nil
	// outside a kernel launch, as on a CPU thread, where LaunchChild panics.
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

// CTA reports the thread's block index; 0 on a CPU thread, whose task is
// a one-CTA grid.
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
// scratch phase ordering; use atomics for intra-CTA combining. It is a GPU
// construct: on a CPU thread the op is recorded, but the CPU model charges
// it one issue slot and synchronizes nothing.
func (t *Thread) Sync() { t.rec(isa.Op{Kind: isa.OpSync}) }

// FLOP records n arithmetic operations.
func (t *Thread) FLOP(n int) {
	if n > 0 {
		t.rec(isa.Op{Kind: isa.OpCompute, N: uint32(n)})
	}
}

// ScratchOp records n scratchpad (shared memory) accesses. It is a GPU
// construct: on a CPU thread the CPU model charges each op one issue slot
// and no memory access.
func (t *Thread) ScratchOp(n int) {
	for i := 0; i < n; i++ {
		t.rec(isa.Op{Kind: isa.OpScratch, N: 4})
	}
}

func (t *Thread) rec(op isa.Op) { t.tr = append(t.tr, op) }

// traceBufs recycles op buffers across tasks, launches and concurrent
// runs: a CPU thread's trace, from its task's start until its core has
// replayed it, and a launch's lane arena, from the launch until the kernel
// completes. A buffer keeps the capacity it grew to.
var traceBufs = sync.Pool{New: func() any { return new(isa.Trace) }}

// laneRecorder runs a kernel body once per lane of a CTA, recording every
// lane into one flat op arena that the launch reuses across its CTAs, so
// it grows to the launch's largest CTA and then stops allocating.
type laneRecorder struct {
	t     Thread
	fn    func(t *Thread)
	arena *isa.Trace  // the traceBufs entry t.tr records into
	ends  []int       // ends[i] is lane i's end offset in the arena t.tr
	lanes []isa.Trace // per-lane views into the arena, returned by gen
}

// newLaneRecorder builds the recorder of one launch of fn with block
// threads per CTA. children collects device-side launches; nil makes
// LaunchChild panic, as it does outside a kernel.
func newLaneRecorder(block int, fn func(t *Thread), children *[]KernelSpec) *laneRecorder {
	arena := traceBufs.Get().(*isa.Trace)
	return &laneRecorder{
		t:     Thread{tr: (*arena)[:0], block: block, children: children},
		fn:    fn,
		arena: arena,
		ends:  make([]int, block),
		lanes: make([]isa.Trace, block),
	}
}

// release puts the arena back in traceBufs. Call it once gen has made its
// last call and nothing reads the traces it returned: when the kernel
// completes.
func (r *laneRecorder) release() {
	*r.arena = r.t.tr[:0]
	traceBufs.Put(r.arena)
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

// CPUThread is one CPU software thread's execution context: a Thread
// whose task is a one-CTA grid of Threads() lanes. LaunchChild panics on
// it, since a CPU task is not a kernel launch.
type CPUThread = Thread

// TID reports this software thread's index within the task. It reads the
// same field as Global, so on a GPU lane it equals Global().
func (t *Thread) TID() int { return t.global }

// Threads reports the task's software thread count. It reads the same
// field as Block, so on a GPU lane it is the block size, not the grid's
// thread count.
func (t *Thread) Threads() int { return t.block }

// record is the common instrumentation path for typed accesses.
// It must stay within the inliner's budget, so that Ld and St inline it
// into kernel bodies and recording makes no call.
func record[T any](t *Thread, b *Buf[T], i int, kind isa.OpKind) {
	es := b.ElemSize()
	t.rec(isa.Op{Kind: kind, Addr: b.A.Base + memory.Addr(i*es), N: uint32(es)})
}

// LdN reads count consecutive elements of b starting at i as one access
// (split into line transactions by the timing models). Returns the slice.
func LdN[T any](t *Thread, b *Buf[T], i, count int) []T {
	if count <= 0 {
		return nil
	}
	es := b.ElemSize()
	addr := b.A.Base + memory.Addr(i*es)
	t.rec(isa.Op{Kind: isa.OpLoad, Addr: addr, N: uint32(count * es)})
	return b.V[i : i+count]
}

// StN writes count consecutive elements of b starting at i from src as one
// access.
func StN[T any](t *Thread, b *Buf[T], i int, src []T) {
	if len(src) == 0 {
		return
	}
	es := b.ElemSize()
	addr := b.A.Base + memory.Addr(i*es)
	t.rec(isa.Op{Kind: isa.OpStore, Addr: addr, N: uint32(len(src) * es)})
	copy(b.V[i:], src)
}

// Ld reads element i of b, recording the access.
func Ld[T any](t *Thread, b *Buf[T], i int) T {
	record(t, b, i, isa.OpLoad)
	return b.V[i]
}

// LdDep reads element i of b as a dependent (serializing) load — use for
// pointer chasing on the CPU. On the GPU it behaves like Ld.
func LdDep[T any](t *Thread, b *Buf[T], i int) T {
	record(t, b, i, isa.OpLoadDep)
	return b.V[i]
}

// St writes element i of b, recording the access.
func St[T any](t *Thread, b *Buf[T], i int, v T) {
	record(t, b, i, isa.OpStore)
	b.V[i] = v
}

// AtomicAddF32 adds v to element i of b atomically (functionally immediate;
// recorded as a read-modify-write). Returns the old value.
func AtomicAddF32(t *Thread, b *Buf[float32], i int, v float32) float32 {
	record(t, b, i, isa.OpAtomic)
	old := b.V[i]
	b.V[i] += v
	return old
}

// AtomicAddI32 adds v to element i of b atomically. Returns the old value.
func AtomicAddI32(t *Thread, b *Buf[int32], i int, v int32) int32 {
	record(t, b, i, isa.OpAtomic)
	old := b.V[i]
	b.V[i] += v
	return old
}

// AtomicMinI32 lowers element i of b to v if smaller. Returns the old value.
func AtomicMinI32(t *Thread, b *Buf[int32], i int, v int32) int32 {
	record(t, b, i, isa.OpAtomic)
	old := b.V[i]
	if v < old {
		b.V[i] = v
	}
	return old
}

// AtomicCASI32 compares-and-swaps element i of b. Returns the old value.
func AtomicCASI32(t *Thread, b *Buf[int32], i int, want, repl int32) int32 {
	record(t, b, i, isa.OpAtomic)
	old := b.V[i]
	if old == want {
		b.V[i] = repl
	}
	return old
}
