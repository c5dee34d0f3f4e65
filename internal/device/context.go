package device

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpucore"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
)

// signalLat is the cost of consuming a cross-component "data ready" signal
// (an in-memory flag in the heterogeneous processor, a stream-event check in
// the discrete system).
const signalLat = 200 * sim.Nanosecond

// Handle tracks one asynchronous operation. Handles double as dependencies:
// pass them to the *Async methods to order operations, exactly as CUDA
// streams/events or in-memory signal variables would.
type Handle struct {
	s         *System
	label     string // names the operation for deadlock diagnostics
	completed bool
	end       sim.Tick
	cbs       []func(sim.Tick)
}

// Done reports whether the operation has completed.
func (h *Handle) Done() bool { return h.completed }

// End reports the completion time (valid once Done).
func (h *Handle) End() sim.Tick { return h.end }

func (h *Handle) whenDone(fn func(sim.Tick)) {
	if h.completed {
		fn(h.end)
		return
	}
	h.cbs = append(h.cbs, fn)
}

func (h *Handle) complete(end sim.Tick) {
	if h.completed {
		panic("device: handle completed twice")
	}
	h.completed = true
	h.end = end
	cbs := h.cbs
	h.cbs = nil
	for _, f := range cbs {
		f(end)
	}
}

func (s *System) newHandle(label string) *Handle { return &Handle{s: s, label: label} }

// NewHandle returns an unfulfilled handle for a user-defined asynchronous
// operation; complete it with Complete. The label names the operation in
// deadlock diagnostics.
func (s *System) NewHandle(label string) *Handle { return s.newHandle(label) }

// Complete marks a user-created handle done at the current simulated time.
func (h *Handle) Complete() { h.complete(h.s.Eng.Now()) }

// when invokes fn once every dep has completed, passing the latest
// completion time (or now if there are none).
func (s *System) when(deps []*Handle, fn func(ready sim.Tick)) {
	if len(deps) == 0 {
		fn(s.Eng.Now())
		return
	}
	remaining := len(deps)
	ready := s.Eng.Now()
	for _, d := range deps {
		d.whenDone(func(e sim.Tick) {
			if e > ready {
				ready = e
			}
			remaining--
			if remaining == 0 {
				fn(ready)
			}
		})
	}
}

// afterAll returns a handle that completes when all deps have.
func (s *System) afterAll(deps []*Handle) *Handle {
	h := s.newHandle("barrier")
	s.when(deps, h.complete)
	return h
}

// AfterAll returns a handle that completes once every dep has — a join
// point for fan-in dependency graphs.
func (s *System) AfterAll(deps ...*Handle) *Handle { return s.afterAll(deps) }

// Wait runs the simulation until h completes. If the event queue drains
// first, the waited-on operation can never complete; Wait aborts the run
// with a *DeadlockError naming the wedged stage (recovered into a run
// error by the harness layer).
func (s *System) Wait(h *Handle) {
	for !h.completed {
		if !s.Eng.Step() {
			label := h.label
			if label == "" {
				label = "unlabeled operation"
			}
			panic(&DeadlockError{Stage: label, SimTime: s.Eng.Now(), EventsRun: s.Eng.EventsRun()})
		}
	}
}

// Drain runs the simulation until no events remain.
func (s *System) Drain() { s.Eng.Run() }

// BeginROI drains outstanding work and marks the region-of-interest start.
func (s *System) BeginROI() {
	s.Drain()
	s.roiOpen = true
	s.Col.BeginROI(s.Eng.Now())
}

// EndROI drains outstanding work and marks ROI completion.
func (s *System) EndROI() {
	s.Drain()
	s.roiOpen = false
	s.Col.EndROI(s.Eng.Now())
}

// KernelSpec describes one GPU kernel launch.
type KernelSpec struct {
	Name         string
	Grid         int // CTAs
	Block        int // threads per CTA
	ScratchBytes int // scratch per CTA
	Func         func(t *Thread)
}

// LaunchAsync schedules a GPU kernel after deps. The host-side launch
// overhead is charged as CPU activity and serializes on the host thread —
// the ingredient of Eq. 1's Cserial.
func (s *System) LaunchAsync(k KernelSpec, deps ...*Handle) *Handle {
	if k.Grid <= 0 || k.Block <= 0 {
		usageErrorf("LaunchAsync", "kernel %s needs positive grid and block (got %dx%d)", k.Name, k.Grid, k.Block)
	}
	if k.Block > s.Cfg.GPU.MaxWarpsPerSM*s.Cfg.GPU.WarpSize {
		usageErrorf("LaunchAsync", "kernel %s block %d exceeds SM capacity", k.Name, k.Block)
	}
	h := s.newHandle("kernel " + k.Name)
	s.when(deps, func(ready sim.Tick) {
		launchDur := sim.Tick(s.Cfg.KernelLaunchNs * float64(sim.Nanosecond))
		launchStart := s.hostMux.Claim(ready, launchDur)
		start := launchStart + launchDur
		s.Col.AddActivityNamed(stats.CPU, "launch "+k.Name, launchStart, start)
		s.Eng.At(start, func() { s.launchOnGPU(k, launchStart, launchDur, h) })
	})
	return h
}

// deviceLaunchOverhead is the device-side launch cost of a dynamic-
// parallelism child kernel (no host round trip, but not free either).
const deviceLaunchOverhead = 8 * sim.Microsecond

// launchOnGPU starts k at the current simulated time and completes h when
// the kernel and all device-launched children have finished.
func (s *System) launchOnGPU(k KernelSpec, launchStart, launchDur sim.Tick, h *Handle) {
	start := s.Eng.Now()
	st := s.Col.StageBegin(core.StageKernel, k.Name, stats.GPU, launchStart, launchDur, start)
	var children []KernelSpec
	rec := newLaneRecorder(k.Block, k.Func, &children)
	kern := &gpucore.Kernel{
		Name:         k.Name,
		CTAs:         k.Grid,
		ThreadsPerTA: k.Block,
		ScratchBytes: k.ScratchBytes,
		Gen:          rec.gen,
		Done: func(end sim.Tick, flops uint64) {
			rec.release()
			s.flushGPUL1s(end)
			s.Col.StageEnd(st, end, flops, 0)
			if len(children) == 0 {
				h.complete(end)
				return
			}
			// Dynamic parallelism: children start after the parent, each
			// paying the device-side launch overhead; the parent's handle
			// completes when the last child (transitively) does.
			remaining := len(children)
			var lastEnd sim.Tick
			for i, ck := range children {
				ch := s.newHandle("child kernel " + ck.Name)
				ckStart := end + sim.Tick(i+1)*deviceLaunchOverhead
				ckCopy := ck
				s.Eng.At(ckStart, func() { s.launchOnGPU(ckCopy, ckStart, 0, ch) })
				ch.whenDone(func(e sim.Tick) {
					if e > lastEnd {
						lastEnd = e
					}
					remaining--
					if remaining == 0 {
						h.complete(lastEnd)
					}
				})
			}
		},
	}
	s.gpu.Launch(start, kern)
}

// Launch runs a kernel synchronously.
func (s *System) Launch(k KernelSpec) { s.Wait(s.LaunchAsync(k)) }

// copyAsync schedules a DMA copy after deps; funcCopy applies the
// functional data movement at issue time (dependency-ordered).
func (s *System) copyAsync(dst, src *Alloc, n int, funcCopy func(), deps []*Handle) *Handle {
	if n <= 0 {
		usageErrorf("Memcpy", "empty copy %s->%s (%d bytes)", src.Name, dst.Name, n)
	}
	if n > dst.Size || n > src.Size {
		usageErrorf("Memcpy", "copy of %d bytes overruns %s (%d) or %s (%d)", n, dst.Name, dst.Size, src.Name, src.Size)
	}
	h := s.newHandle(fmt.Sprintf("copy %s->%s", src.Name, dst.Name))
	s.when(deps, func(ready sim.Tick) {
		funcCopy()
		launchDur := sim.Tick(s.Cfg.KernelLaunchNs * float64(sim.Nanosecond))
		launchStart := s.hostMux.Claim(ready, launchDur)
		start := launchStart + launchDur
		s.Col.AddActivityNamed(stats.CPU, "launch copy", launchStart, start)

		// Coherence actions: write back dirty source lines so the DMA reads
		// fresh data; invalidate destination lines everywhere ("written
		// back or invalidated").
		s.writebackRange(start, src)
		s.invalidateRange(start, dst)

		// The destination pages become resident (the driver maps them while
		// the copy engine runs).
		s.vmm.MapRange(dst.Base, n)

		s.Col.Touch(stats.Copy, src.Base, n)
		s.Col.Touch(stats.Copy, dst.Base, n)

		s.Eng.At(start, func() {
			st := s.Col.StageBegin(core.StageCopy, fmt.Sprintf("copy %s->%s", src.Name, dst.Name),
				stats.Copy, launchStart, launchDur, start)
			s.dma.Transfer(start, src.Base, dst.Base, n, s.dramFor(src), s.dramFor(dst),
				func(tstart, tend sim.Tick) {
					s.Col.StageEnd(st, tend, 0, uint64(n))
					h.complete(tend)
				})
		})
	})
	return h
}

// dramFor picks the memory an allocation physically lives in.
func (s *System) dramFor(a *Alloc) *memory.DRAM {
	if s.Cfg.Kind != config.Discrete || a.Loc == Device {
		return s.gpuDRAM
	}
	return s.cpuDRAM
}

func (s *System) writebackRange(now sim.Tick, a *Alloc) {
	for _, c := range s.allCaches() {
		c.WritebackRange(now, a.Base, a.Size)
	}
}

func (s *System) invalidateRange(now sim.Tick, a *Alloc) {
	for _, c := range s.allCaches() {
		c.InvalidateRange(now, a.Base, a.Size, stats.Copy)
	}
}

func (s *System) allCaches() []*memory.Cache {
	out := make([]*memory.Cache, 0, len(s.coreL1)+len(s.coreL2)+len(s.gpuL1s)+1)
	out = append(out, s.coreL1...)
	out = append(out, s.coreL2...)
	out = append(out, s.gpuL1s...)
	out = append(out, s.gpuL2)
	return out
}

// MemcpyAsync schedules a full-buffer copy (equal lengths required).
func MemcpyAsync[T any](s *System, dst, src *Buf[T], deps ...*Handle) *Handle {
	if len(dst.V) != len(src.V) {
		usageErrorf("Memcpy", "length mismatch %s(%d) != %s(%d)", dst.A.Name, len(dst.V), src.A.Name, len(src.V))
	}
	return s.copyAsync(dst.A, src.A, src.A.Size, func() { copy(dst.V, src.V) }, deps)
}

// Memcpy copies synchronously.
func Memcpy[T any](s *System, dst, src *Buf[T]) { s.Wait(MemcpyAsync(s, dst, src)) }

// MemcpyRangeAsync copies count elements from src[srcOff:] to dst[dstOff:],
// the building block of chunked asynchronous streams.
func MemcpyRangeAsync[T any](s *System, dst *Buf[T], dstOff int, src *Buf[T], srcOff, count int, deps ...*Handle) *Handle {
	es := src.ElemSize()
	sub := func(a *Alloc, off, n int) *Alloc {
		return &Alloc{Name: a.Name, Base: a.Base + memory.Addr(off*es), Size: n * es, Loc: a.Loc}
	}
	return s.copyAsync(sub(dst.A, dstOff, count), sub(src.A, srcOff, count), count*es,
		func() { copy(dst.V[dstOff:dstOff+count], src.V[srcOff:srcOff+count]) }, deps)
}

// CPUTaskSpec describes a (possibly multi-threaded) CPU compute phase.
type CPUTaskSpec struct {
	Name    string
	Threads int // software threads; scheduled onto the core pool
	Func    func(c *CPUThread)
}

type cpuWork struct {
	tr   *isa.Trace // from traceBufs; put back once the core has replayed it
	done func(end sim.Tick, flops uint64)
}

// CPUTaskAsync schedules a CPU phase after deps. Threads execute
// functionally in TID order at start, then their traces replay on the core
// pool.
func (s *System) CPUTaskAsync(spec CPUTaskSpec, deps ...*Handle) *Handle {
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	h := s.newHandle("cpu task " + spec.Name)
	s.when(deps, func(ready sim.Tick) {
		s.Eng.At(ready+signalLat, func() {
			now := s.Eng.Now()
			st := s.Col.StageBegin(core.StageCPU, spec.Name, stats.CPU, now, 0, now)
			remaining := spec.Threads
			var maxEnd sim.Tick
			var totFLOPs uint64
			for tid := 0; tid < spec.Threads; tid++ {
				tr := traceBufs.Get().(*isa.Trace)
				ct := &CPUThread{tr: (*tr)[:0], lane: tid, block: spec.Threads, global: tid}
				spec.Func(ct)
				*tr = ct.tr
				// The thread's Figure 4 footprint, from its recorded trace.
				for _, op := range ct.tr {
					if op.Kind.Mem() {
						s.Col.Touch(stats.CPU, op.Addr, int(op.N))
					}
				}
				s.runOnCore(&cpuWork{tr: tr, done: func(end sim.Tick, flops uint64) {
					if end > maxEnd {
						maxEnd = end
					}
					totFLOPs += flops
					remaining--
					if remaining == 0 {
						s.Col.StageEnd(st, maxEnd, totFLOPs, 0)
						h.complete(maxEnd)
					}
				}})
			}
		})
	})
	return h
}

// CPUTask runs a CPU phase synchronously.
func (s *System) CPUTask(spec CPUTaskSpec) { s.Wait(s.CPUTaskAsync(spec)) }

// runOnCore dispatches work to a free CPU core or queues it.
func (s *System) runOnCore(w *cpuWork) {
	if len(s.freeCores) == 0 {
		s.taskQueue = append(s.taskQueue, w)
		return
	}
	id := s.freeCores[len(s.freeCores)-1]
	s.freeCores = s.freeCores[:len(s.freeCores)-1]
	s.startOnCore(id, w)
}

func (s *System) startOnCore(id int, w *cpuWork) {
	s.cores[id].RunTrace(s.Eng.Now(), stats.CPU, *w.tr, func(end sim.Tick, flops uint64) {
		s.Eng.At(end, func() { s.releaseCore(id) })
		w.done(end, flops)
		// The replay is over and nothing else holds the trace.
		traceBufs.Put(w.tr)
	})
}

func (s *System) releaseCore(id int) {
	if len(s.taskQueue) > 0 {
		w := s.taskQueue[0]
		s.taskQueue = s.taskQueue[1:]
		s.startOnCore(id, w)
		return
	}
	s.freeCores = append(s.freeCores, id)
}
