package gpucore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// testRig is a small GPU with a counting sink behind per-SM L1s.
type testRig struct {
	eng  *sim.Engine
	g    *GPU
	sink *sinkPort
	vmgr *vm.Manager
}

type sinkPort struct {
	lat   sim.Tick
	reads int
	wrs   int
}

func (p *sinkPort) Access(now sim.Tick, req memory.Request) sim.Tick {
	if req.Write {
		p.wrs++
	} else {
		p.reads++
	}
	return now + p.lat
}

func newRig(t testing.TB, sms int, memLat sim.Tick) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := config.GPUConfig{
		SMs: sms, ClockHz: 700e6, WarpSize: 32,
		MaxWarpsPerSM: 48, MaxCTAsPerSM: 8, ScratchBytesPkSM: 48 * 1024,
		LanesPerCycle: 32, L1Bytes: 24 * 1024, L1Assoc: 6,
	}
	sink := &sinkPort{lat: memLat}
	var l1s []*memory.Cache
	for i := 0; i < sms; i++ {
		l1s = append(l1s, memory.NewCache(memory.CacheConfig{
			Name: "l1", SizeBytes: cfg.L1Bytes, Assoc: cfg.L1Assoc, LineBytes: 128,
			Policy: memory.WriteThroughNoAlloc, HitLat: 40 * sim.Nanosecond, Next: sink, SrcID: SrcID(),
		}))
	}
	mgr := vm.New(vm.Config{PageBytes: 4096}, nil)
	mgr.MapRange(0, 1<<30)
	return &testRig{eng: eng, g: New(eng, cfg, l1s, mgr, 128, stats.NewCounters()), sink: sink, vmgr: mgr}
}

// uniform builds a Gen producing identical traces for every lane.
func uniform(threads int, mk func(lane int) isa.Trace) func(int) []isa.Trace {
	return func(cta int) []isa.Trace {
		out := make([]isa.Trace, threads)
		for i := range out {
			out[i] = mk(i)
		}
		return out
	}
}

func runKernel(t *testing.T, r *testRig, k *Kernel) (end sim.Tick, flops uint64) {
	t.Helper()
	doneRan := false
	k.Done = func(e sim.Tick, f uint64) { end, flops, doneRan = e, f, true }
	r.g.Launch(0, k)
	r.eng.Run()
	if !doneRan {
		t.Fatal("kernel never completed")
	}
	return end, flops
}

func TestKernelCompletesAndCountsFLOPs(t *testing.T) {
	r := newRig(t, 2, 100*sim.Nanosecond)
	_, flops := runKernel(t, r, &Kernel{
		Name: "k", CTAs: 4, ThreadsPerTA: 64,
		Gen: uniform(64, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpCompute, N: 10}}
		}),
	})
	if flops != 4*64*10 {
		t.Fatalf("flops = %d, want %d", flops, 4*64*10)
	}
	if r.g.Ctr.Get("gpu.ctas") != 4 {
		t.Fatalf("ctas = %d", r.g.Ctr.Get("gpu.ctas"))
	}
	if r.g.Ctr.Get("gpu.warps_retired") != 8 {
		t.Fatalf("warps = %d", r.g.Ctr.Get("gpu.warps_retired"))
	}
}

func TestCoalescingUnitStride(t *testing.T) {
	r := newRig(t, 1, 0)
	// 32 lanes x 4B unit stride = exactly one 128B line = 1 transaction.
	runKernel(t, r, &Kernel{
		Name: "c", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(lane * 4), N: 4}}
		}),
	})
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 1 {
		t.Fatalf("unit-stride transactions = %d, want 1", got)
	}
	checkCompiledLines(t, uniform(32, func(lane int) isa.Trace {
		return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(lane * 4), N: 4}}
	}), 1)
}

// checkCompiledLines compiles CTA 0 of gen and checks its single memory
// instruction carries want coalesced lines.
func checkCompiledLines(t *testing.T, gen func(int) []isa.Trace, want int) {
	t.Helper()
	var c compiler
	p := c.compile(nil, gen(0), 32, 128)
	code, lines := p.warp(0)
	if len(code) != 1 || !code[0].kind.Mem() || int(code[0].n) != want || len(lines) != want {
		t.Fatalf("compiled %+v with %d lines, want one memory op of %d lines", code, len(lines), want)
	}
}

func TestCoalescingScattered(t *testing.T) {
	r := newRig(t, 1, 0)
	// Each lane hits its own line: 32 transactions.
	runKernel(t, r, &Kernel{
		Name: "s", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(lane * 128), N: 4}}
		}),
	})
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 32 {
		t.Fatalf("scattered transactions = %d, want 32", got)
	}
	checkCompiledLines(t, uniform(32, func(lane int) isa.Trace {
		return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(lane * 128), N: 4}}
	}), 32)
}

func TestMisalignmentDoublesTransactions(t *testing.T) {
	r := newRig(t, 1, 0)
	// A 128B-misaligned unit-stride warp access straddles two lines.
	runKernel(t, r, &Kernel{
		Name: "m", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(64 + lane*4), N: 4}}
		}),
	})
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 2 {
		t.Fatalf("misaligned transactions = %d, want 2", got)
	}
}

func TestWarpsHideMemoryLatency(t *testing.T) {
	// One warp: serial round trips. Many warps: latency overlapped.
	lat := 400 * sim.Nanosecond
	mkKernel := func(ctas int) *Kernel {
		return &Kernel{
			Name: "lat", CTAs: ctas, ThreadsPerTA: 32,
			Gen: uniform(32, func(lane int) isa.Trace {
				tr := make(isa.Trace, 8)
				for i := range tr {
					// Distinct lines per lane and per iteration: all misses.
					tr[i] = isa.Op{Kind: isa.OpLoad, Addr: memory.Addr(lane*128 + i*32*128), N: 4}
				}
				return tr
			}),
		}
	}
	r1 := newRig(t, 1, lat)
	end1, _ := runKernel(t, r1, mkKernel(1))
	r8 := newRig(t, 1, lat)
	end8, _ := runKernel(t, r8, mkKernel(8))
	// 8 CTAs issue 8x the loads; with latency hiding the time should grow
	// far less than 8x.
	if end8 > end1*3 {
		t.Fatalf("no latency hiding: 1 CTA %d ps, 8 CTAs %d ps", end1, end8)
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	r := newRig(t, 1, 0)
	// Warp 0 (lanes 0-31) computes a long stretch before the barrier; warp 1
	// a short one. After the barrier both do one load; the load cannot issue
	// before the slow warp arrives.
	slow := int64(10000) // cycles
	runKernel(t, r, &Kernel{
		Name: "bar", CTAs: 1, ThreadsPerTA: 64,
		Gen: func(cta int) []isa.Trace {
			out := make([]isa.Trace, 64)
			for i := range out {
				n := uint32(1)
				if i < 32 {
					n = uint32(slow)
				}
				out[i] = isa.Trace{
					{Kind: isa.OpCompute, N: n},
					{Kind: isa.OpSync},
					{Kind: isa.OpLoad, Addr: memory.Addr(i * 128), N: 4},
				}
			}
			return out
		},
	})
	// The kernel end must be at least the slow warp's compute time.
	if r.eng.Now() < r.g.Clk.Cycles(slow) {
		t.Fatalf("barrier did not hold: end %d < %d", r.eng.Now(), r.g.Clk.Cycles(slow))
	}
}

func TestCTACapacityLimitsSerializeWaves(t *testing.T) {
	// 1 SM, MaxCTAs 8: 16 heavy CTAs must run in two waves.
	r := newRig(t, 1, 0)
	cycles := int64(5000)
	end16, _ := runKernel(t, r, &Kernel{
		Name: "wave", CTAs: 16, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpCompute, N: uint32(cycles)}}
		}),
	})
	// Issue port serializes compute anyway; the check is on correct
	// completion of all CTAs.
	if r.g.Ctr.Get("gpu.ctas") != 16 {
		t.Fatalf("dispatched %d CTAs", r.g.Ctr.Get("gpu.ctas"))
	}
	if end16 < r.g.Clk.Cycles(16*cycles) {
		t.Fatalf("16 compute-bound CTAs on one SM too fast: %d", end16)
	}
}

func TestScratchLimitBlocksPlacement(t *testing.T) {
	r := newRig(t, 1, 0)
	// Each CTA wants 30kB of 48kB scratch: only one resident at a time.
	end, _ := runKernel(t, r, &Kernel{
		Name: "scr", CTAs: 2, ThreadsPerTA: 32, ScratchBytes: 30 * 1024,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpCompute, N: 1000}}
		}),
	})
	if end < r.g.Clk.Cycles(2000) {
		t.Fatalf("scratch limit not enforced: %d", end)
	}
}

func TestDivergentLanesSerialize(t *testing.T) {
	r := newRig(t, 1, 0)
	// Half the lanes compute 100 cycles, half load. The merge rule executes
	// them as separate slots.
	runKernel(t, r, &Kernel{
		Name: "div", CTAs: 1, ThreadsPerTA: 32,
		Gen: func(cta int) []isa.Trace {
			out := make([]isa.Trace, 32)
			for i := range out {
				if i%2 == 0 {
					out[i] = isa.Trace{{Kind: isa.OpCompute, N: 100}}
				} else {
					out[i] = isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(i * 128), N: 4}}
				}
			}
			return out
		},
	})
	// 16 odd lanes hit distinct lines: 16 transactions, plus compute ran.
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 16 {
		t.Fatalf("divergent transactions = %d, want 16", got)
	}
	if got := r.g.Ctr.Get("gpu.flops"); got != 16*100 {
		t.Fatalf("divergent flops = %d", got)
	}
}

func TestStoresArePosted(t *testing.T) {
	r := newRig(t, 1, 500*sim.Nanosecond)
	end, _ := runKernel(t, r, &Kernel{
		Name: "st", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpStore, Addr: memory.Addr(lane * 4), N: 4}}
		}),
	})
	if end > 100*sim.Nanosecond {
		t.Fatalf("stores stalled the warp: %d ps", end)
	}
	if r.sink.wrs == 0 {
		t.Fatal("stores never reached memory")
	}
}

func TestGPUPageFaultsDelayWarps(t *testing.T) {
	eng := sim.NewEngine()
	cfgBase := config.GPUConfig{
		SMs: 1, ClockHz: 700e6, WarpSize: 32,
		MaxWarpsPerSM: 48, MaxCTAsPerSM: 8, ScratchBytesPkSM: 48 * 1024,
		LanesPerCycle: 32, L1Bytes: 24 * 1024, L1Assoc: 6,
	}
	sink := &sinkPort{}
	l1 := memory.NewCache(memory.CacheConfig{
		Name: "l1", SizeBytes: cfgBase.L1Bytes, Assoc: cfgBase.L1Assoc, LineBytes: 128,
		Policy: memory.WriteThroughNoAlloc, HitLat: 0, Next: sink, SrcID: SrcID(),
	})
	// Hetero-style: GPU faults serviced serially by the CPU at 2us each.
	mgr := vm.New(vm.Config{PageBytes: 4096, GPUFaultToCPU: true, CPUFaultServ: 2 * sim.Microsecond}, nil)
	g := New(eng, cfgBase, []*memory.Cache{l1}, mgr, 128, stats.NewCounters())

	var end sim.Tick
	g.Launch(0, &Kernel{
		Name: "fault", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			// Each lane writes its own unmapped page: 32 serialized faults.
			return isa.Trace{{Kind: isa.OpStore, Addr: memory.Addr(lane * 4096), N: 4}}
		}),
		Done: func(e sim.Tick, f uint64) { end = e },
	})
	eng.Run()
	if mgr.Counters().Get("vm.gpu_faults_to_cpu") != 32 {
		t.Fatalf("faults = %d", mgr.Counters().Get("vm.gpu_faults_to_cpu"))
	}
	// Posted stores don't stall, but the *issue* of each transaction waits
	// on translation, so the handler serialization shows up in busy time.
	if mgr.HandlerBusyTime() != 64*sim.Microsecond {
		t.Fatalf("handler busy = %d", mgr.HandlerBusyTime())
	}
	_ = end
}

func TestTwoKernelsFIFO(t *testing.T) {
	r := newRig(t, 1, 0)
	var order []string
	mk := func(name string) *Kernel {
		return &Kernel{
			Name: name, CTAs: 2, ThreadsPerTA: 32,
			Gen: uniform(32, func(lane int) isa.Trace {
				return isa.Trace{{Kind: isa.OpCompute, N: 100}}
			}),
			Done: func(e sim.Tick, f uint64) { order = append(order, name) },
		}
	}
	r.g.Launch(0, mk("a"))
	r.g.Launch(0, mk("b"))
	r.eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("kernel order = %v", order)
	}
}

func TestLaunchValidation(t *testing.T) {
	r := newRig(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty kernel")
		}
	}()
	r.g.Launch(0, &Kernel{Name: "bad", CTAs: 0, ThreadsPerTA: 32})
}

// The reference SIMT walk: lane cursors stepped one issue slot at a time,
// with per-op coalescing, written independently of the compiler. The
// property test below holds compile to it.

type laneCursor struct {
	tr  isa.Trace
	idx int
}

func (lc *laneCursor) done() bool { return lc.idx >= len(lc.tr) }

// refSlot is one issue slot of the reference walk.
type refSlot struct {
	kind  isa.OpKind
	maxN  uint32
	sum   uint64
	lines []memory.Addr
}

// refWarp walks one warp's lanes: the lowest-numbered unfinished lane
// leads and every unfinished lane at an op of the same kind advances.
func refWarp(traces []isa.Trace, lineBytes int) []refSlot {
	var lanes []laneCursor
	for _, tr := range traces {
		lanes = append(lanes, laneCursor{tr: tr})
	}
	var out []refSlot
	for {
		lead := -1
		for i := range lanes {
			if !lanes[i].done() {
				lead = i
				break
			}
		}
		if lead < 0 {
			return out
		}
		slot := refSlot{kind: lanes[lead].tr[lanes[lead].idx].Kind}
		switch slot.kind {
		case isa.OpCompute:
			for i := range lanes {
				lc := &lanes[i]
				if !lc.done() && lc.tr[lc.idx].Kind == isa.OpCompute {
					slot.maxN = max(slot.maxN, lc.tr[lc.idx].N)
					slot.sum += uint64(lc.tr[lc.idx].N)
					lc.idx++
				}
			}
		case isa.OpSync, isa.OpScratch:
			advanceLanes(lanes, slot.kind)
		default:
			slot.lines = coalesce(nil, lanes, slot.kind, lineBytes)
		}
		out = append(out, slot)
	}
}

// coalesce advances every lane whose next op matches kind and appends that
// op's unique line addresses to buf.
func coalesce(buf []memory.Addr, lanes []laneCursor, kind isa.OpKind, lineBytes int) []memory.Addr {
	base := len(buf)
	for i := range lanes {
		lc := &lanes[i]
		if lc.done() || lc.tr[lc.idx].Kind != kind {
			continue
		}
		op := lc.tr[lc.idx]
		lc.idx++
		n := memory.LinesSpanned(op.Addr, int(op.N), lineBytes)
		for j := 0; j < n; j++ {
			a := memory.LineAddr(op.Addr, lineBytes) + memory.Addr(j*lineBytes)
			dup := false
			for _, l := range buf[base:] {
				if l == a {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, a)
			}
		}
	}
	return buf
}

// advanceLanes advances every lane whose next op matches kind.
func advanceLanes(lanes []laneCursor, kind isa.OpKind) {
	for i := range lanes {
		lc := &lanes[i]
		if !lc.done() && lc.tr[lc.idx].Kind == kind {
			lc.idx++
		}
	}
}

// ctaShape selects how randomCTA's lanes relate to their shared template.
type ctaShape int

const (
	// divergent lanes are ragged and stray from the template at 1 in 5 of
	// its ops from op 0 on, so nearly every slot of a 32-lane warp diverges.
	divergent ctaShape = iota
	// convergent lanes follow the template (lanes of a warp issue every
	// slot together), and half the CTAs are ragged.
	convergent
	// prefixed lanes follow the template up to a random op and then stray
	// as divergent ones do, and half the CTAs are ragged.
	prefixed
)

// ctaShapes lists every ctaShape, for tests that run each seed in each.
var ctaShapes = []ctaShape{divergent, convergent, prefixed}

// randomCTA builds barrier-laden lane traces of the given shape over a
// small address range, so coalescing merges and spans lines. Ragged lanes
// stop at different points and some are empty. lanes need not be a
// multiple of the warp size.
func randomCTA(rng *rand.Rand, shape ctaShape) []isa.Trace {
	kinds := []isa.OpKind{isa.OpCompute, isa.OpLoad, isa.OpLoadDep, isa.OpStore, isa.OpAtomic, isa.OpScratch, isa.OpSync}
	randOp := func(lane int) isa.Op {
		k := kinds[rng.Intn(len(kinds))]
		switch k {
		case isa.OpCompute:
			return isa.Op{Kind: k, N: uint32(rng.Intn(40))}
		case isa.OpScratch:
			return isa.Op{Kind: k, N: 4}
		case isa.OpSync:
			return isa.Op{Kind: k}
		}
		return isa.Op{Kind: k, Addr: memory.Addr(rng.Intn(2048) + lane*4*rng.Intn(2)), N: uint32(1 + rng.Intn(300))}
	}
	template := make([]isa.Op, rng.Intn(24))
	for j := range template {
		template[j] = randOp(0)
	}
	// Lanes stray from the template at 1 in 5 of its ops from op from on.
	from, ragged := 0, true
	switch shape {
	case convergent:
		from, ragged = len(template), rng.Intn(2) == 0
	case prefixed:
		from, ragged = rng.Intn(len(template)+1), rng.Intn(2) == 0
	}
	out := make([]isa.Trace, 1+rng.Intn(100))
	for lane := range out {
		n := len(template)
		if ragged && rng.Intn(4) == 0 {
			n = rng.Intn(n + 1)
		}
		tr := make(isa.Trace, 0, n)
		for j := 0; j < n; j++ {
			op := template[j]
			if j >= from && rng.Intn(5) == 0 {
				op = randOp(lane)
			} else if op.Kind.Mem() {
				op.Addr += memory.Addr(lane * 4)
			}
			tr = append(tr, op)
		}
		out[lane] = tr
	}
	return out
}

// TestCompileMatchesLaneWalk checks, for random lane traces, that every
// warp's compiled instructions, lines, FLOP sums and transaction counts
// equal the reference lane-cursor walk's.
func TestCompileMatchesLaneWalk(t *testing.T) {
	var c compiler // reused across CTAs, as a kernel reuses it
	check := func(seed int64, small bool, shape ctaShape) bool {
		traces := randomCTA(rand.New(rand.NewSource(seed)), shape)
		warpsz := 32
		if small {
			warpsz = 8
		}
		p := c.compile(nil, traces, warpsz, 128)
		nw := (len(traces) + warpsz - 1) / warpsz
		if len(p.at) != nw+1 {
			t.Logf("seed %d shape %d: %d warp offsets for %d warps", seed, shape, len(p.at), nw)
			return false
		}
		for wi := 0; wi < nw; wi++ {
			code, lines := p.warp(wi)
			ref := refWarp(traces[wi*warpsz:min((wi+1)*warpsz, len(traces))], 128)
			if len(code) != len(ref) {
				t.Logf("seed %d shape %d warp %d: %d instructions, reference %d", seed, shape, wi, len(code), len(ref))
				return false
			}
			for j, in := range code {
				r := ref[j]
				ok := in.kind == r.kind
				switch {
				case in.kind == isa.OpCompute:
					ok = ok && in.n == r.maxN && in.sum == r.sum
				case in.kind.Mem():
					ok = ok && int(in.n) == len(r.lines) && slices.Equal(lines[:in.n], r.lines)
					lines = lines[in.n:]
				default:
					ok = ok && in.n == 0 && in.sum == 0
				}
				if !ok {
					t.Logf("seed %d shape %d warp %d inst %d: %+v, reference %+v", seed, shape, wi, j, in, r)
					return false
				}
			}
			if len(lines) != 0 {
				t.Logf("seed %d shape %d warp %d: %d lines left over", seed, shape, wi, len(lines))
				return false
			}
		}
		return true
	}
	f := func(seed int64, small bool) bool {
		for _, shape := range ctaShapes {
			if !check(seed, small, shape) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledReplayMatchesLaneWalkCounters runs random CTAs of every shape
// through the timing model and checks the transaction and FLOP counters
// equal the reference walk's totals.
func TestCompiledReplayMatchesLaneWalkCounters(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, shape := range ctaShapes {
			traces := randomCTA(rand.New(rand.NewSource(seed)), shape)
			var wantTx, wantFLOPs uint64
			for lo := 0; lo < len(traces); lo += 32 {
				for _, r := range refWarp(traces[lo:min(lo+32, len(traces))], 128) {
					wantTx += uint64(len(r.lines))
					wantFLOPs += r.sum
				}
			}
			r := newRig(t, 1, 50*sim.Nanosecond)
			_, flops := runKernel(t, r, &Kernel{
				Name: "rand", CTAs: 1, ThreadsPerTA: len(traces),
				Gen: func(int) []isa.Trace { return traces },
			})
			if got := r.g.Ctr.Get("gpu.mem_transactions"); got != wantTx {
				t.Fatalf("seed %d shape %d: %d transactions, reference %d", seed, shape, got, wantTx)
			}
			if flops != wantFLOPs || r.g.Ctr.Get("gpu.flops") != wantFLOPs {
				t.Fatalf("seed %d shape %d: %d flops, reference %d", seed, shape, flops, wantFLOPs)
			}
		}
	}
}

// footprintCTA is randomCTA with some memory ops widened into multi-line
// LdN/StN-style accesses and some emptied to N == 0.
func footprintCTA(rng *rand.Rand, shape ctaShape) []isa.Trace {
	traces := randomCTA(rng, shape)
	for _, tr := range traces {
		for j := range tr {
			if !tr[j].Kind.Mem() {
				continue
			}
			switch rng.Intn(8) {
			case 0:
				tr[j].N = 0
			case 1:
				tr[j].N = uint32(128 + rng.Intn(2048))
			}
		}
	}
	return traces
}

// TestCompiledLinesFootprintMatchesLaneTouches checks, for random CTAs,
// that the footprint the GPU touches from a dispatched CTA's compiled lines
// partitions exactly like touching every lane memory op's [Addr, Addr+N).
// Both footprints also take the same CPU touches, so shared lines are
// covered, not only GPU-only ones.
func TestCompiledLinesFootprintMatchesLaneTouches(t *testing.T) {
	check := func(seed int64, shape ctaShape) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := footprintCTA(rng, shape)
		compiled := core.NewCollector(128, 179e9)
		lanes := core.NewCollector(128, 179e9)
		for n := rng.Intn(8); n > 0; n-- {
			addr, size := memory.Addr(rng.Intn(6000)), rng.Intn(400)
			compiled.Touch(stats.CPU, addr, size)
			lanes.Touch(stats.CPU, addr, size)
		}
		for _, tr := range traces {
			for _, op := range tr {
				if op.Kind.Mem() {
					lanes.Touch(stats.GPU, op.Addr, int(op.N))
				}
			}
		}
		r := newRig(t, 1, 50*sim.Nanosecond)
		r.g.Foot = compiled.Footprint()
		runKernel(t, r, &Kernel{
			Name: "rand", CTAs: 1, ThreadsPerTA: len(traces),
			Gen: func(int) []isa.Trace { return traces },
		})
		if got, want := compiled.FootprintBytes(), lanes.FootprintBytes(); got != want {
			t.Logf("seed %d shape %d: compiled lines touch %d bytes, lane ops %d", seed, shape, got, want)
			return false
		}
		if got, want := compiled.FootprintPartition(), lanes.FootprintPartition(); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d shape %d: compiled lines partition %v, lane ops %v", seed, shape, got, want)
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		for _, shape := range ctaShapes {
			if !check(seed, shape) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInstStaysCompact pins the compiled instruction at 16 bytes: programs
// are what the parallel engine's window and the resident CTAs hold live.
func TestInstStaysCompact(t *testing.T) {
	if got := unsafe.Sizeof(inst{}); got != 16 {
		t.Fatalf("inst is %d bytes, want 16", got)
	}
}

// kmeansCTA is a 256-lane CTA shaped like the kmeans assignment kernel:
// per feature a unit-stride load and a few FLOPs, then one store.
func kmeansCTA() []isa.Trace {
	out := make([]isa.Trace, 256)
	for lane := range out {
		var tr isa.Trace
		for f := 0; f < 34; f++ {
			tr = append(tr,
				isa.Op{Kind: isa.OpLoad, Addr: memory.Addr(f*256*4 + lane*4), N: 4},
				isa.Op{Kind: isa.OpCompute, N: 3})
		}
		out[lane] = append(tr, isa.Op{Kind: isa.OpStore, Addr: memory.Addr(1<<20 + lane*4), N: 4})
	}
	return out
}

// TestCompileIntoReusedProgram checks that compiling into a program that
// last held a larger CTA gives exactly what compiling into a new one does:
// no instruction, line or warp offset of the earlier CTA leaks through the
// reused capacity.
func TestCompileIntoReusedProgram(t *testing.T) {
	var c compiler
	big := kmeansCTA()
	dst := c.compile(nil, big, 32, 128)
	for seed := int64(1); seed <= 100; seed++ {
		for _, shape := range ctaShapes {
			traces := randomCTA(rand.New(rand.NewSource(seed)), shape)
			want := c.compile(nil, traces, 32, 128)
			dst = c.compile(c.compile(dst, big, 32, 128), traces, 32, 128)
			if !slices.Equal(dst.code, want.code) || !slices.Equal(dst.lines, want.lines) || !slices.Equal(dst.at, want.at) {
				t.Fatalf("seed %d shape %d: reused program differs from a new one", seed, shape)
			}
		}
	}
}

// TestCompileZeroAlloc checks that compiling into a warm program with warm
// compiler scratch allocates nothing.
func TestCompileZeroAlloc(t *testing.T) {
	traces := kmeansCTA()
	var c compiler
	dst := c.compile(nil, traces, 32, 128)
	if n := testing.AllocsPerRun(50, func() { c.compile(dst, traces, 32, 128) }); n != 0 {
		t.Fatalf("warm compile allocates %.1f times per CTA", n)
	}
}

// compiled keeps BenchmarkCompileCTA's result live.
var compiled *program

// BenchmarkCompileCTA measures compiling one 256-lane CTA with warm
// compiler scratch into one reused program, as a CTA recycled through the
// program pool is compiled.
func BenchmarkCompileCTA(b *testing.B) {
	traces := kmeansCTA()
	var c compiler
	dst := c.compile(nil, traces, 32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled = c.compile(dst, traces, 32, 128)
	}
}

// replayRig holds one resident CTA on SM 0 whose warp replays prog.
type replayRig struct {
	r    *testRig
	cs   *ctaState
	prog *program
}

func newReplayRig(t testing.TB) *replayRig {
	r := newRig(t, 1, 100*sim.Nanosecond)
	var c compiler
	s := r.g.sms[0]
	k := &Kernel{Name: "replay", CTAs: 1, ThreadsPerTA: 32}
	return &replayRig{r: r, cs: &ctaState{sm: s, k: k, fl: &k.flops}, prog: c.compile(nil, kmeansCTA()[:32], 32, 128)}
}

// run replays warp 0 of the program to completion on a pooled warp.
func (rr *replayRig) run() {
	s, cs := rr.cs.sm, rr.cs
	cs.liveWarps, cs.k.live = 1, 1
	s.liveCTAs++
	s.liveWarps++
	wp := s.takeWarp(cs, rr.r.eng.Now())
	wp.code, wp.lines = rr.prog.warp(0)
	rr.r.eng.At(rr.r.eng.Now(), wp.stepFn)
	rr.r.eng.Run()
}

// TestWarpReplayZeroAlloc checks a warm, pooled warp replays a compiled
// program without allocating.
func TestWarpReplayZeroAlloc(t *testing.T) {
	rr := newReplayRig(t)
	rr.run()
	if n := testing.AllocsPerRun(100, rr.run); n != 0 {
		t.Fatalf("warp replay allocates %.1f times per program", n)
	}
}

// BenchmarkWarpReplay measures replaying one warp's compiled program (34
// load+compute pairs and a store) on a warm, pooled warp.
func BenchmarkWarpReplay(b *testing.B) {
	rr := newReplayRig(b)
	rr.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.run()
	}
}
