package device

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// PipelineSpec describes a chunked, overlapped H2D → kernel → D2H schedule:
// the shared machinery behind every async-streams benchmark organization.
// The pipeline issues chunk stages in chunk-major order and wires the
// per-chunk dependency graph; the stage callbacks perform the actual
// transfers and launches (closing over their buffers) and may add their own
// extra dependencies to the ones the pipeline passes in.
type PipelineSpec struct {
	// Name labels the pipeline's trace lanes and diagnostics.
	Name string
	// Chunks is how many chunks the work is split into.
	Chunks int
	// Depth bounds how many chunks' device buffers may be in flight: chunk
	// c's upload waits for the kernel that consumed slot c-Depth, and its
	// kernel waits for the downloads that drained slot c-Depth — classic
	// double (Depth 2) or triple (Depth 3) buffering. Depth <= 0 means
	// every chunk has private buffer space and no reuse ordering is added.
	Depth int
	// H2D issues chunk c's host-to-device transfers after deps and returns
	// their completion (nil when the chunk has nothing to upload, e.g. a
	// zero-size tail chunk). A nil H2D skips the stage for every chunk.
	H2D func(c int, deps ...*Handle) *Handle
	// Kernel issues chunk c's kernel after deps (nil return skips the
	// chunk, e.g. a zero-size tail).
	Kernel func(c int, deps ...*Handle) *Handle
	// D2H issues chunk c's device-to-host transfers after deps, like H2D.
	D2H func(c int, deps ...*Handle) *Handle
}

// Pipeline emits the overlapped dependency graph for spec and returns a
// handle that completes when every chunk's last stage has. Per chunk c:
// kernel(c) waits for h2d(c), d2h(c) waits for kernel(c); with Depth > 0,
// h2d(c) additionally waits for kernel(c-Depth) and kernel(c) for
// d2h(c-Depth) (buffer-slot reuse). Nothing else is serialized: transfers
// from different chunks contend only on the simulated copy engine, and
// launches only on the host thread — the organization the paper's
// async-streams restructurings hand-built per benchmark.
func (s *System) Pipeline(spec PipelineSpec) *Handle {
	if spec.Chunks <= 0 {
		usageErrorf("Pipeline", "pipeline %s needs at least one chunk (got %d)", spec.Name, spec.Chunks)
	}
	if spec.Kernel == nil {
		usageErrorf("Pipeline", "pipeline %s needs a Kernel stage", spec.Name)
	}
	kernels := make([]*Handle, spec.Chunks)
	d2hs := make([]*Handle, spec.Chunks)
	lasts := make([]*Handle, 0, spec.Chunks)
	var depBuf [2]*Handle
	for c := 0; c < spec.Chunks; c++ {
		reuse := -1
		if spec.Depth > 0 {
			reuse = c - spec.Depth
		}
		var h2d *Handle
		if spec.H2D != nil {
			deps := depBuf[:0]
			if reuse >= 0 && kernels[reuse] != nil {
				deps = append(deps, kernels[reuse])
			}
			h2d = spec.H2D(c, deps...)
			s.pipelineSpan(spec.Name, c, spec.Depth, spec.Chunks, "h2d", deps, h2d)
		}
		deps := depBuf[:0]
		if h2d != nil {
			deps = append(deps, h2d)
		}
		if reuse >= 0 && d2hs[reuse] != nil {
			deps = append(deps, d2hs[reuse])
		}
		k := spec.Kernel(c, deps...)
		s.pipelineSpan(spec.Name, c, spec.Depth, spec.Chunks, "kernel", deps, k)
		kernels[c] = k
		var d2h *Handle
		if spec.D2H != nil {
			deps = depBuf[:0]
			if k != nil {
				deps = append(deps, k)
			}
			d2h = spec.D2H(c, deps...)
			s.pipelineSpan(spec.Name, c, spec.Depth, spec.Chunks, "d2h", deps, d2h)
		}
		d2hs[c] = d2h
		last := d2h
		if last == nil {
			last = k
		}
		if last == nil {
			last = h2d
		}
		if last != nil {
			lasts = append(lasts, last)
		}
	}
	return s.afterAll(lasts)
}

// DoubleBuffer is Pipeline with Depth 2: two buffer slots, chunk c's upload
// overlapping chunk c-1's kernel and chunk c-2's download.
func (s *System) DoubleBuffer(spec PipelineSpec) *Handle {
	spec.Depth = 2
	return s.Pipeline(spec)
}

// pipelineSpan emits the trace-lane span for one pipeline stage op: one
// lane per buffer slot (chunk modulo depth), so Perfetto shows the classic
// staircase of overlapped slots. Trace-only bookkeeping; untraced runs skip
// it entirely and traced runs stay tick-identical (no engine events).
func (s *System) pipelineSpan(name string, c, depth, chunks int, stage string, deps []*Handle, op *Handle) {
	if op == nil || !s.Tr.Enabled() {
		return
	}
	slots := depth
	if slots <= 0 {
		slots = chunks
	}
	ready := s.afterAll(append([]*Handle(nil), deps...))
	track := "pipeline " + name + " slot " + itoa(c%slots)
	label := stage + " chunk " + itoa(c)
	op.whenDone(func(end sim.Tick) {
		s.Tr.Span(stats.CPU, track, "pipeline", label, ready.end, end)
	})
}

// itoa is a tiny non-negative integer formatter (avoids strconv in the
// trace-only path's imports).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
