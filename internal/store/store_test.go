package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsx"
	"repro/internal/harness"
)

func openT(t *testing.T, fsys fsx.FS, dir string) *Store {
	t.Helper()
	s, err := Open(fsys, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles lists the *.entry files in dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestFingerprintHelper(t *testing.T) {
	var a, b fingerprint
	a.Add("size", "small")
	a.Add("bench", "rodinia/bfs|copy")
	b.Add("size", "small")
	b.Add("bench", "rodinia/bfs|copy")
	if a.Sum() != b.Sum() {
		t.Fatal("same parts must hash equal")
	}
	var c fingerprint
	c.Add("size", "smallbench")
	c.Add("", "rodinia/bfs|copy")
	if a.Sum() == c.Sum() {
		t.Fatal("length-prefixing must prevent concatenation collisions")
	}
	var d fingerprint
	d.Add("size", "large")
	d.Add("bench", "rodinia/bfs|copy")
	if a.Sum() == d.Sum() {
		t.Fatal("different values must hash differently")
	}
}

// keyOnly is a benchmark that is only ever keyed, never run.
type keyOnly struct{}

func (keyOnly) Info() bench.Info                           { return bench.Info{Suite: "zz_test", Name: "key-only"} }
func (keyOnly) Run(*device.System, bench.Mode, bench.Size) { panic("keyOnly must never run") }

// TestRunKeyCoversMachine: the run key hashes the machine a run
// simulates, so moving any one field of it — a design knob or an
// injected fault — moves the key, while naming the mode's stock machine
// explicitly keys like leaving Machine nil.
func TestRunKeyCoversMachine(t *testing.T) {
	spec := func(mode bench.Mode, tweak func(*config.System)) harness.Spec {
		s := harness.Spec{Bench: keyOnly{}, Mode: mode, Size: bench.SizeSmall}
		if tweak != nil {
			m := bench.ConfigFor(mode)
			tweak(&m)
			s.Machine = &m
		}
		return s
	}
	for m := bench.Mode(0); m < bench.NumModes; m++ {
		if RunKey(spec(m, nil)) != RunKey(spec(m, func(*config.System) {})) {
			t.Errorf("%s: an explicit stock machine keys unlike a nil Machine", m)
		}
	}
	keys := map[string]string{"stock": RunKey(spec(bench.ModeLimitedCopy, nil))}
	for name, tweak := range map[string]func(*config.System){
		"GPU.L2Bytes":             func(c *config.System) { c.GPU.L2Bytes = 512 * 1024 },
		"NoCoherence":             func(c *config.System) { c.NoCoherence = true },
		"VM.CPUFaultServUs":       func(c *config.System) { c.VM.CPUFaultServUs = 0.5 },
		"PCIe.BytesPerSec":        func(c *config.System) { c.PCIe.BytesPerSec = 16e9 },
		"Faults.PCIeBWFrac":       func(c *config.System) { c.Faults.PCIeBWFrac = 0.5 },
		"Faults.FaultLatMult":     func(c *config.System) { c.Faults.FaultLatMult = 0.5 },
		"Faults.DRAMStallChannel": func(c *config.System) { c.Faults.DRAMStallChannel = 1 },
		"Faults.DRAMStallStartUs": func(c *config.System) { c.Faults.DRAMStallStartUs = 10 },
		"Faults.DRAMStallEndUs":   func(c *config.System) { c.Faults.DRAMStallEndUs = 10 },
	} {
		k := RunKey(spec(bench.ModeLimitedCopy, tweak))
		for other, ok := range keys {
			if k == ok {
				t.Errorf("moving %s keys like %s", name, other)
			}
		}
		keys[name] = k
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(fsx.OS, t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDir(fsx.OS, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory should fail")
	}
}

// TestPutSyncsDir: a Put is durable only once the directory entry naming
// it is, so every Put ends with a directory fsync.
func TestPutSyncsDir(t *testing.T) {
	ff := fsx.NewFault(fsx.OS)
	s := openT(t, ff, t.TempDir())
	for i, key := range []string{"a", "b"} {
		if err := s.Put(key, []byte("body\n")); err != nil {
			t.Fatal(err)
		}
		if got := ff.Count(fsx.OpSyncDir); got != uint64(i+1) {
			t.Fatalf("after %d Puts: %d directory fsyncs, want %d", i+1, got, i+1)
		}
	}
}

// TestPutSyncDirFailure: a Put whose directory fsync fails must fail
// loudly — the entry's existence is not yet durable.
func TestPutSyncDirFailure(t *testing.T) {
	ff := fsx.NewFault(fsx.OS)
	s := openT(t, ff, t.TempDir())
	ff.FailOp(fsx.OpSyncDir, fsx.ErrIO)
	if err := s.Put("k", []byte("body\n")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("put with failing dir fsync err = %v, want EIO", err)
	}
}

// TestPutFsyncEIO: a Put whose fsync fails surfaces the error and stores
// nothing under the serving name; entries written before the fault still
// read back verified.
func TestPutFsyncEIO(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFault(fsx.OS)
	s := openT(t, ff, dir)
	if err := s.Put("old", []byte("synced\n")); err != nil {
		t.Fatal(err)
	}
	ff.FailOp(fsx.OpSync, fsx.ErrIO)
	if err := s.Put("new", []byte("unsynced\n")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("put with failing fsync err = %v, want EIO", err)
	}
	ff.Clear()
	if _, ok := s.Get("new"); ok {
		t.Fatal("an unsynced Put was served")
	}
	if got, ok := s.Get("old"); !ok || string(got) != "synced\n" {
		t.Fatalf("earlier entry = %q, %v", got, ok)
	}
	if n := len(entryFiles(t, dir)); n != 1 {
		t.Fatalf("%d entry files, want 1", n)
	}
}

// TestTornPutENOSPC: the disk fills mid-write of an entry, tearing it.
// The torn temp file never reaches the serving name, and once the disk
// clears the same Put writes a file byte-identical to one written with no
// fault at all.
func TestTornPutENOSPC(t *testing.T) {
	body := bytes.Repeat([]byte("record bytes "), 100)
	refDir := t.TempDir()
	if err := openT(t, nil, refDir).Put("k", body); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ff := fsx.NewFault(fsx.OS)
	s := openT(t, ff, dir)
	ff.Inject(fsx.Rule{Op: fsx.OpWrite, Nth: 2, Err: fsx.ErrNoSpace, Trip: true, ShortWrite: true})
	if err := s.Put("k", body); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("put on full disk err = %v, want ENOSPC", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("a torn Put was served")
	}
	ff.Clear()
	if err := s.Put("k", body); err != nil {
		t.Fatal(err)
	}
	ref, _ := os.ReadFile(filepath.Join(refDir, "k.entry"))
	got, _ := os.ReadFile(filepath.Join(dir, "k.entry"))
	if !bytes.Equal(ref, got) {
		t.Fatalf("entry after recovery differs from the unfaulted reference:\nref: %q\ngot: %q", ref, got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("store dir holds %d files after recovery, want just the entry", len(ents))
	}
}

// sampleOutcome is a completed run with a report to round-trip.
func sampleOutcome() *harness.Outcome {
	return &harness.Outcome{
		Report:   &core.Report{Benchmark: "rodinia/backprop", ROI: 12345},
		Attempts: 1, Size: bench.SizeSmall, SimTime: 12345, Events: 678,
	}
}

// TestRunRecordRoundTrip: a run put through Records reads back
// identically, canceled outcomes are never stored, the first failed Put is
// sticky, and a nil view is inert.
func TestRunRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFault(fsx.OS)
	recs := openT(t, ff, dir).Records()
	ok := sampleOutcome()
	recs.Put(RunKeyPrefix+"a", ok)
	got := recs.Get(RunKeyPrefix + "a")
	if got == nil || got.Sys != nil || got.Report.String() != ok.Report.String() || got.Events != ok.Events {
		t.Fatalf("stored outcome = %+v, want %+v", got, ok)
	}

	// A canceled outcome must NOT be stored: it is shutdown residue, and
	// a later lookup should run the benchmark.
	recs.Put(RunKeyPrefix+"b", &harness.Outcome{Err: &harness.RunError{Kind: harness.KindCanceled}, Attempts: 1})
	if recs.Get(RunKeyPrefix+"b") != nil {
		t.Fatal("canceled outcome was stored")
	}

	// The first failure sticks: later Puts are skipped even once the
	// disk heals.
	ff.FailOp(fsx.OpRename, fsx.ErrIO)
	recs.Put(RunKeyPrefix+"c", ok)
	ff.Clear()
	recs.Put(RunKeyPrefix+"d", ok)
	if recs.Err() == nil || recs.Get(RunKeyPrefix+"c") != nil || recs.Get(RunKeyPrefix+"d") != nil {
		t.Fatalf("after a failed Put: err=%v, later Put stored=%v", recs.Err(), recs.Get(RunKeyPrefix+"d") != nil)
	}

	var nilRecs *Records
	nilRecs.Put("x", ok)
	if nilRecs.Get("x") != nil || nilRecs.Err() != nil {
		t.Fatal("nil Records is not inert")
	}
}

// TestRecordsSurviveReopen: records stored before a restart are found by
// a fresh store over the same dir; an undecodable record is quarantined
// and reads as a miss instead of failing the lookup.
func TestRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	openT(t, nil, dir).Records().Put(RunKeyPrefix+"a", sampleOutcome())
	if err := openT(t, nil, dir).Put(RunKeyPrefix+"bad", []byte("{not json")); err != nil {
		t.Fatal(err)
	}

	recs := openT(t, nil, dir).Records()
	if got := recs.Get(RunKeyPrefix + "a"); got == nil || got.Events != 678 {
		t.Fatalf("record after reopen = %+v", got)
	}
	if recs.Get(RunKeyPrefix+"bad") != nil {
		t.Fatal("undecodable record served")
	}
	q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(q) != 1 || !strings.Contains(q[0], RunKeyPrefix+"bad") {
		t.Fatalf("quarantines = %v, want the undecodable record", q)
	}
}

// BenchmarkPut measures durably storing one run record through the OS
// seam: temp file, write, fsync, rename over the previous entry, directory
// fsync. Keys cycle over a fixed set, so the index stays its steady size.
func BenchmarkPut(b *testing.B) {
	s, err := Open(fsx.OS, b.TempDir(), b.Logf)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(sampleOutcome())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%02d", RunKeyPrefix, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], body); err != nil {
			b.Fatal(err)
		}
	}
}
