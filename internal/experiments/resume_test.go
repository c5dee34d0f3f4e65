package experiments

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// resumeOpts is the shared sweep shape of the checkpoint/resume tests:
// small, serial, and with a restricted benchmark list so the three sweeps
// (clean, interrupted, resumed) stay quick.
func resumeOpts() SweepOpts {
	return SweepOpts{
		Only: []string{"rodinia/backprop", "rodinia/kmeans", "rodinia/bfs"},
		Jobs: 1,
	}
}

// zeroWalls clears wall-clock durations, the one nondeterministic field,
// before document comparison.
func zeroWalls(r *Results) {
	for i := range r.Runs {
		r.Runs[i].Wall = 0
	}
	for i := range r.Failed {
		r.Failed[i].Wall = 0
	}
}

// openRecords opens a fresh view of the run store at dir.
func openRecords(t *testing.T, dir string) *store.Records {
	t.Helper()
	st, err := store.Open(nil, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st.Records()
}

// countingSweep runs a sweep over the store at dir and reports how many
// runs it found stored and how many it simulated.
func countingSweep(t *testing.T, dir string, size bench.Size, opts SweepOpts) (res *Results, stored, simulated int) {
	t.Helper()
	var sims atomic.Int32
	opts.Store = openRecords(t, dir)
	opts.OnStored = func(n int) { stored = n }
	opts.Progress = sweep.NewEventTracker(func(ev sweep.Event) {
		if ev.Kind == "start" {
			sims.Add(1)
		}
	})
	res, _ = RunSweep(size, opts)
	if err := opts.Store.Err(); err != nil {
		t.Fatal(err)
	}
	return res, stored, int(sims.Load())
}

// TestSweepCheckpointResume is the in-process resume acceptance test: a
// sweep canceled partway, then rerun over the same run store, must
// produce figures and a JSON document identical to an uninterrupted sweep
// — and must not re-execute the stored runs.
func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()

	clean, _ := RunSweep(bench.SizeSmall, resumeOpts())

	// Interrupted sweep: cancel dispatch after the third run starts. The
	// in-flight run drains and is stored (graceful-shutdown contract), so
	// the store ends up with the first three runs.
	opts := resumeOpts()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	opts.Store = openRecords(t, dir)
	opts.Ctx = ctx
	opts.Progress = sweep.NewEventTracker(func(ev sweep.Event) {
		if ev.Kind == "start" && started.Add(1) == 3 {
			cancel()
		}
	})
	partial, _ := RunSweep(bench.SizeSmall, opts)
	cancel()
	if len(partial.Skipped) == 0 {
		t.Fatal("canceled sweep skipped nothing; cancellation came too late to test resume")
	}
	if got := int(started.Load()); got != 3 {
		t.Fatalf("interrupted sweep executed %d runs, want 3", got)
	}
	if len(partial.Runs)+len(partial.Skipped) != len(clean.Runs) {
		t.Fatalf("partial sweep accounts for %d+%d runs, clean has %d",
			len(partial.Runs), len(partial.Skipped), len(clean.Runs))
	}

	// Rerun: looks every slot up, runs only the remainder.
	resumed, stored, simulated := countingSweep(t, dir, bench.SizeSmall, resumeOpts())
	if stored != 3 {
		t.Fatalf("rerun found %d stored runs, want 3", stored)
	}
	if simulated != len(clean.Runs)-3 {
		t.Fatalf("rerun executed %d runs, want %d", simulated, len(clean.Runs)-3)
	}
	if len(resumed.Skipped) != 0 {
		t.Fatalf("resumed sweep skipped %v", resumed.Skipped)
	}

	// Byte-identity: every figure and the whole JSON doc.
	for name, render := range map[string]func(*Results) string{
		"fig4": Fig4Text, "fig5": Fig5Text, "fig6": Fig6Text,
		"fig7": Fig7Text, "fig8": Fig8Text, "fig9": Fig9Text,
	} {
		if a, b := render(clean), render(resumed); a != b {
			t.Fatalf("%s differs between clean and resumed sweep:\n--- clean\n%s\n--- resumed\n%s", name, a, b)
		}
	}
	zeroWalls(clean)
	zeroWalls(resumed)
	aj, _ := json.Marshal(clean.JSON())
	bj, _ := json.Marshal(resumed.JSON())
	if string(aj) != string(bj) {
		t.Fatal("JSON export differs between clean and resumed sweep")
	}
}

// TestSweepStoreKeysByConfig: runs are shared exactly where their
// result-determining inputs match. A sweep that overlaps an earlier one
// simulates only the new benchmark's runs; a sweep under a changed
// configuration reuses nothing.
func TestSweepStoreKeysByConfig(t *testing.T) {
	dir := t.TempDir()
	one := SweepOpts{Only: []string{"rodinia/backprop"}, Jobs: 1}
	first, stored, simulated := countingSweep(t, dir, bench.SizeSmall, one)
	if stored != 0 || simulated != len(first.Runs) {
		t.Fatalf("fresh store: stored=%d simulated=%d, want 0/%d", stored, simulated, len(first.Runs))
	}

	// Overlap: backprop's runs are reused, nw's are simulated.
	two := SweepOpts{Only: []string{"rodinia/backprop", "rodinia/nw"}, Jobs: 1}
	both, stored, simulated := countingSweep(t, dir, bench.SizeSmall, two)
	if stored != len(first.Runs) || simulated != len(both.Runs)-len(first.Runs) {
		t.Fatalf("overlapping sweep: stored=%d simulated=%d, want %d/%d",
			stored, simulated, len(first.Runs), len(both.Runs)-len(first.Runs))
	}
	fresh, _ := RunSweep(bench.SizeSmall, two)
	zeroWalls(both)
	zeroWalls(fresh)
	aj, _ := json.Marshal(both.JSON())
	bj, _ := json.Marshal(fresh.JSON())
	if string(aj) != string(bj) {
		t.Fatal("sweep over shared runs differs from the same sweep on a fresh store")
	}

	// A changed result-determining input is a different run.
	changed := one
	changed.Stall = time.Hour
	_, stored, simulated = countingSweep(t, dir, bench.SizeSmall, changed)
	if stored != 0 || simulated != len(first.Runs) {
		t.Fatalf("changed stall window: stored=%d simulated=%d, want 0/%d", stored, simulated, len(first.Runs))
	}
}

// TestSweepFingerprintIgnoresJobs: results are identical for every worker
// count, so a sweep served at one jobs value is the same document as at
// another.
func TestSweepFingerprintIgnoresJobs(t *testing.T) {
	a := resumeOpts()
	a.Jobs = 1
	b := resumeOpts()
	b.Jobs = 8
	if SweepFingerprint(bench.SizeSmall, a) != SweepFingerprint(bench.SizeSmall, b) {
		t.Fatal("fingerprint must not depend on the worker count")
	}
	c := resumeOpts()
	c.Stall = 1 // any behavioral knob must change it
	if SweepFingerprint(bench.SizeSmall, a) == SweepFingerprint(bench.SizeSmall, c) {
		t.Fatal("fingerprint must cover the stall window")
	}
}

// baseSpec is the run the key tables vary one input at a time.
func baseSpec(t *testing.T) harness.Spec {
	t.Helper()
	b, ok := bench.Get("rodinia/backprop")
	if !ok {
		t.Fatal("rodinia/backprop not registered")
	}
	return harness.Spec{Bench: b, Mode: bench.ModeCopy, Size: bench.SizeSmall}
}

// keyMutation changes one input of baseSpec's run and of the sweep of
// baseSpec's benchmark. A nil spec leaves the run as is; a nil sweep
// applies spec to every slot through PerRun.
type keyMutation struct {
	name  string
	spec  func(*harness.Spec)
	sweep func(*bench.Size, *SweepOpts)
}

// keysUnder returns the run key, the /v1/run document key and the sweep
// key with m applied (the base keys for the zero keyMutation).
func keysUnder(t *testing.T, m keyMutation) [3]string {
	t.Helper()
	spec := baseSpec(t)
	if m.spec != nil {
		m.spec(&spec)
	}
	size, opts := bench.SizeSmall, SweepOpts{Only: []string{"rodinia/backprop"}}
	switch {
	case m.sweep != nil:
		m.sweep(&size, &opts)
	case m.spec != nil:
		opts.PerRun = m.spec
	}
	return [3]string{store.RunKey(spec), RunDocKey(spec), SweepFingerprint(size, opts)}
}

var keyNames = [3]string{"run key", "run document key", "sweep key"}

// TestFingerprintExcludesParallel: scheduling inputs — worker counts, the
// request ID, cancellation and progress hooks — leave results
// byte-identical, so none of them may move the run key, the /v1/run
// document key or the sweep key.
func TestFingerprintExcludesParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := keysUnder(t, keyMutation{})
	for _, m := range []keyMutation{
		{"parallel", func(s *harness.Spec) { s.Parallel = 8 }, func(_ *bench.Size, o *SweepOpts) { o.Parallel = 8 }},
		{"jobs", nil, func(_ *bench.Size, o *SweepOpts) { o.Jobs = 8 }},
		{"request id", func(s *harness.Spec) { s.RequestID = "req-7" }, func(_ *bench.Size, o *SweepOpts) { o.RequestID = "req-7" }},
		{"ctx", func(s *harness.Spec) { s.Ctx = ctx }, func(_ *bench.Size, o *SweepOpts) { o.Ctx, o.RunCtx = ctx, ctx }},
		{"progress", func(s *harness.Spec) { s.OnRetry = func(bench.Size, *harness.RunError) {} }, func(_ *bench.Size, o *SweepOpts) {
			o.Progress = sweep.NewTracker(io.Discard, 0)
			o.OnStored = func(int) {}
		}},
	} {
		for i, k := range keysUnder(t, m) {
			if k != base[i] {
				t.Errorf("%s depends on scheduling input %q", keyNames[i], m.name)
			}
		}
	}
}

// modeSetBench is a registry stub whose organization list can change
// between fingerprint computations, modeling a benchmark gaining or
// losing an extra mode across code versions. It is never swept (every
// sweep in this package restricts Only), so Run stays unreachable.
type modeSetBench struct {
	extra []bench.Mode
}

func (b *modeSetBench) Info() bench.Info {
	return bench.Info{Suite: "zz_test", Name: "modeset", Desc: "fingerprint mode-set stub", ExtraModes: b.extra}
}

func (b *modeSetBench) Run(s *device.System, mode bench.Mode, size bench.Size) {
	panic("modeSetBench must never run")
}

// TestFingerprintCoversModeSet: a benchmark's organization list is part
// of the sweep fingerprint (through its slot list), so a document stored
// before the benchmark gained an extra mode can never alias the new
// sweep. Likewise every result-determining input of a run moves its run
// key, its /v1/run document key and the sweep key, and no two of the
// resulting keys are equal.
func TestFingerprintCoversModeSet(t *testing.T) {
	stub := &modeSetBench{}
	bench.Register(stub)
	opts := SweepOpts{Only: []string{"zz_test/modeset"}, Jobs: 1}
	before := SweepFingerprint(bench.SizeSmall, opts)

	// The benchmark gains async-streams support; the fingerprint moves.
	stub.extra = []bench.Mode{bench.ModeAsyncStreams}
	if after := SweepFingerprint(bench.SizeSmall, opts); after == before {
		t.Fatal("fingerprint must cover the benchmark's organization list")
	}
	stub.extra = nil
	if again := SweepFingerprint(bench.SizeSmall, opts); again != before {
		t.Fatal("restoring the mode set must restore the fingerprint")
	}

	fault, err := harness.ParseFaultPlan("pcie=0.5")
	if err != nil {
		t.Fatal(err)
	}
	base := keysUnder(t, keyMutation{})
	if !strings.HasPrefix(base[0], store.RunKeyPrefix) {
		t.Fatalf("run key %q lacks the %q prefix", base[0], store.RunKeyPrefix)
	}
	keys := map[string]string{"mode set sweep key": before}
	add := func(name string, ks [3]string) {
		for i, k := range ks {
			label := name + " " + keyNames[i]
			for other, ok := range keys {
				if k == ok {
					t.Errorf("%s equals %s", label, other)
				}
			}
			keys[label] = k
		}
	}
	add("base", base)
	for _, m := range []keyMutation{
		{"bench", func(s *harness.Spec) { s.Bench, _ = bench.Get("rodinia/kmeans") },
			func(_ *bench.Size, o *SweepOpts) { o.Only = []string{"rodinia/kmeans"} }},
		{"mode", func(s *harness.Spec) { s.Mode = bench.ModeLimitedCopy }, nil},
		{"size", func(s *harness.Spec) { s.Size = bench.SizeMedium },
			func(size *bench.Size, _ *SweepOpts) { *size = bench.SizeMedium }},
		{"fault", func(s *harness.Spec) { s.Fault = fault },
			func(_ *bench.Size, o *SweepOpts) { o.Fault = fault }},
		{"max_events", func(s *harness.Spec) { s.Budget.MaxEvents = 1000 },
			func(_ *bench.Size, o *SweepOpts) { o.Budget.MaxEvents = 1000 }},
		{"timeout", func(s *harness.Spec) { s.Budget.Timeout = time.Minute },
			func(_ *bench.Size, o *SweepOpts) { o.Budget.Timeout = time.Minute }},
		{"stall", func(s *harness.Spec) { s.Stall = time.Minute },
			func(_ *bench.Size, o *SweepOpts) { o.Stall = time.Minute }},
		{"trace", func(s *harness.Spec) { s.Trace = trace.New() },
			func(_ *bench.Size, o *SweepOpts) { o.Trace = true }},
	} {
		add(m.name, keysUnder(t, m))
	}
}

// TestSweepStoreOnDisk pins the layout the docs promise: -state DIR is
// the store itself, holding one DIR/run-<hex>.entry record per completed
// slot, named by the slot's run key.
func TestSweepStoreOnDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "state")
	opts := SweepOpts{Only: []string{"rodinia/backprop"}, Jobs: 1}
	res, _, _ := countingSweep(t, dir, bench.SizeSmall, opts)

	var want []string
	for _, s := range sweepSpecs(bench.SizeSmall, opts) {
		want = append(want, store.RunKey(s)+".entry")
	}
	sort.Strings(want)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if len(want) != len(res.Runs) || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("store dir holds %v, want %v", got, want)
	}
}
