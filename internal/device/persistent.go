package device

import (
	"repro/internal/core"
	"repro/internal/gpucore"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PersistentKernelSpec describes a persistent (resident) kernel: launched
// once, then fed batches of CTAs, so the host launch overhead is paid a
// single time and amortized over every chunk — the persistent-thread
// organization from the async-pipeline literature. Func generates the lane
// program per CTA exactly like KernelSpec.Func; the CTA index is global
// across feeds. Child launches (dynamic parallelism) are not supported from
// persistent kernels.
type PersistentKernelSpec struct {
	Name         string
	Block        int // threads per CTA
	ScratchBytes int // scratch per CTA
	Func         func(t *Thread)
}

// PersistentKernel is a launched persistent kernel accepting Feed batches.
type PersistentKernel struct {
	s      *System
	spec   PersistentKernelSpec
	k      *gpucore.Kernel
	opened *Handle   // completes when the kernel is resident on the device
	done   *Handle   // completes when the kernel drains after Close
	issues []*Handle // per-feed issue markers; Close orders after them
	feeds  int
	closed bool

	launchStart, launchDur sim.Tick
}

// LaunchPersistent launches a persistent kernel after deps. The host pays
// one launch claim (the Cserial ingredient) here; subsequent Feed calls cost
// only a signal, which is the point of the organization.
func (s *System) LaunchPersistent(spec PersistentKernelSpec, deps ...*Handle) *PersistentKernel {
	if spec.Block <= 0 {
		usageErrorf("LaunchPersistent", "kernel %s needs a positive block (got %d)", spec.Name, spec.Block)
	}
	if spec.Block > s.Cfg.GPU.MaxWarpsPerSM*s.Cfg.GPU.WarpSize {
		usageErrorf("LaunchPersistent", "kernel %s block %d exceeds SM capacity", spec.Name, spec.Block)
	}
	p := &PersistentKernel{s: s, spec: spec}
	p.opened = s.newHandle("persistent kernel " + spec.Name)
	p.done = s.newHandle("persistent kernel " + spec.Name + " drain")
	rec := newLaneRecorder(spec.Block, spec.Func, nil)
	p.k = &gpucore.Kernel{
		Name:         spec.Name,
		ThreadsPerTA: spec.Block,
		ScratchBytes: spec.ScratchBytes,
		Gen:          rec.gen,
		Done: func(end sim.Tick, flops uint64) {
			s.flushGPUL1s(end)
			p.done.complete(end)
		},
	}
	s.when(deps, func(ready sim.Tick) {
		launchDur := sim.Tick(s.Cfg.KernelLaunchNs * float64(sim.Nanosecond))
		launchStart := s.hostMux.Claim(ready, launchDur)
		start := launchStart + launchDur
		s.Col.AddActivityNamed(stats.CPU, "launch "+spec.Name, launchStart, start)
		p.launchStart, p.launchDur = launchStart, launchDur
		s.Eng.AtD(sim.DomainHost, start, func() {
			s.gpu.LaunchPersistent(s.Eng.Now(), p.k)
			p.opened.complete(s.Eng.Now())
		})
	})
	return p
}

// Feed submits a batch of ctas CTAs to the resident kernel after deps,
// returning a handle that completes when the batch's last CTA drains (with
// its results flushed, so a dependent D2H copy reads fresh data). The feed
// costs only the cross-component signal latency — no host launch claim.
//
// Stage accounting: every feed records its own kernel stage so the GPU busy
// timeline reflects actual batch activity rather than one span covering
// inter-feed idle gaps; only the first feed carries the launch window, so
// Eq. 1's Cserial charges the amortized launch exactly once.
func (p *PersistentKernel) Feed(ctas int, deps ...*Handle) *Handle {
	if p.closed {
		usageErrorf("Feed", "persistent kernel %s already closed", p.spec.Name)
	}
	if ctas <= 0 {
		usageErrorf("Feed", "persistent kernel %s feed needs at least one CTA (got %d)", p.spec.Name, ctas)
	}
	s := p.s
	h := s.newHandle("feed " + p.spec.Name)
	issued := s.newHandle("feed issue " + p.spec.Name)
	p.issues = append(p.issues, issued)
	first := p.feeds == 0
	p.feeds++
	allDeps := make([]*Handle, 0, len(deps)+1)
	allDeps = append(allDeps, deps...)
	allDeps = append(allDeps, p.opened)
	s.when(allDeps, func(ready sim.Tick) {
		s.Eng.AtD(sim.DomainHost, ready+signalLat, func() {
			now := s.Eng.Now()
			ls, ld := now, sim.Tick(0)
			if first {
				ls, ld = p.launchStart, p.launchDur
			}
			st := s.Col.StageBegin(core.StageKernel, p.spec.Name, stats.GPU, ls, ld, now)
			s.gpu.Feed(now, p.k, ctas, func(end sim.Tick, flops uint64) {
				s.flushGPUL1s(end)
				s.Col.StageEnd(st, end, flops, 0)
				h.complete(end)
			})
			issued.complete(now)
		})
	})
	return h
}

// Close stops the kernel accepting feeds and returns the drain handle: it
// completes when every fed CTA has finished and the resident kernel has
// exited. Close orders after all previously issued feeds, so no feed can
// race the stop flag.
func (p *PersistentKernel) Close() *Handle {
	if p.closed {
		usageErrorf("Close", "persistent kernel %s closed twice", p.spec.Name)
	}
	p.closed = true
	s := p.s
	deps := make([]*Handle, 0, len(p.issues)+1)
	deps = append(deps, p.issues...)
	deps = append(deps, p.opened)
	s.when(deps, func(ready sim.Tick) {
		s.Eng.AtD(sim.DomainHost, ready+signalLat, func() {
			s.gpu.ClosePersistent(s.Eng.Now(), p.k)
		})
	})
	return p.done
}

// Done returns the drain handle (see Close).
func (p *PersistentKernel) Done() *Handle { return p.done }
