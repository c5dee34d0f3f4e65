package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/store"
)

// The chaos suite: script filesystem failures underneath a live daemon
// and hold it to the degraded-mode contract — the response is 200 and
// byte-identical to an unfaulted run, the X-Hetsimd-Persist header flips
// to "degraded", /readyz stays ready, and once the fault clears the
// recovery probe re-enables persistence. A persistence failure must never
// surface as a request failure.

// cleanBaseline runs the fast sweep on an unfaulted server and returns
// its body — the byte-identical reference for every chaos scenario.
func cleanBaseline(t *testing.T) []byte {
	t.Helper()
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline sweep status = %d; body: %s", resp.StatusCode, body)
	}
	return body
}

// faultedServer builds a server whose whole persistence path runs through
// an fsx fault injector, with a fast recovery probe.
func faultedServer(t *testing.T) (*fsx.Fault, *Server, string) {
	t.Helper()
	ff := fsx.NewFault(nil)
	s, ts := newTestServer(t, func(c *Config) {
		c.FS = ff
		c.ProbeInterval = 10 * time.Millisecond
		c.GCInterval = -1
	})
	return ff, s, ts.URL
}

// waitPersist polls until the guard reports the wanted status.
func waitPersist(t *testing.T, s *Server, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.persist.status() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("persist status never became %q (stuck at %q)", want, s.persist.status())
}

// mustSweep posts the fast sweep and asserts a 200 with the expected
// persistence header and the expected exact body.
func mustSweep(t *testing.T, url, wantPersist string, wantBody []byte) *http.Response {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep", fastSweep)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200 (persistence failures must never fail requests); body: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderPersist); got != wantPersist {
		t.Fatalf("%s = %q, want %q", HeaderPersist, got, wantPersist)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("response body differs from the unfaulted baseline\nfaulted: %s\nbaseline: %s", body, wantBody)
	}
	return resp
}

// runRecords lists the run records in a server's store.
func runRecords(t *testing.T, s *Server) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.store.Dir(), store.RunKeyPrefix+"*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestChaosTornPutENOSPC: the disk fills mid-sweep, tearing a run
// record's Put. The sweep finishes from memory, the response is identical
// to a healthy run, and after the disk clears a restarted daemon on the
// same state dir reuses the record that landed, simulates the rest, and
// answers byte-identically; persistence heals on the first daemon too.
func TestChaosTornPutENOSPC(t *testing.T) {
	clean := cleanBaseline(t)
	ff, s, url := faultedServer(t)

	// Writes #1 and #2 are the first record's header and body; write #3
	// starts the second record — that one tears (half the header lands)
	// and every write after fails, probe writes included, until the
	// fault clears.
	ff.Inject(fsx.Rule{Op: fsx.OpWrite, Nth: 3, Err: fsx.ErrNoSpace, Trip: true, ShortWrite: true})
	mustSweep(t, url, "degraded", clean)
	if op, _, degraded := s.persist.detail(); !degraded || op != opRecordPut {
		t.Fatalf("guard = (op=%q, degraded=%v), want degraded on %s", op, degraded, opRecordPut)
	}
	// Only the first run was stored; no document was memoized.
	if recs := runRecords(t, s); len(recs) != 1 {
		t.Fatalf("run records after torn sweep = %v, want the one that landed", recs)
	}
	if s.store.Len() != 1 {
		t.Fatalf("store holds %d entries, want just the one record", s.store.Len())
	}

	// The disk clears. A restarted daemon over the same state dir
	// completes the sweep byte-identically, reusing the stored run.
	ff.Clear()
	_, ts2 := newTestServer(t, func(c *Config) {
		c.StateDir = s.cfg.StateDir
		c.GCInterval = -1
	})
	resp := mustSweep(t, ts2.URL, "ok", clean)
	if got := resp.Header.Get(HeaderResumed); got != "1" {
		t.Fatalf("restarted sweep %s = %q, want 1", HeaderResumed, got)
	}

	// The first daemon's probe re-enables persistence; its next request
	// finds the document the restarted daemon stored — same bytes
	// throughout.
	waitPersist(t, s, "ok")
	resp = mustSweep(t, url, "ok", clean)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("post-recovery repeat %s = %q, want hit", HeaderCache, got)
	}
}

// TestChaosFsyncEIO: every fsync fails (a dying device), so not even the
// first run record can be stored. The sweep runs entirely from memory,
// the response is identical, /readyz stays ready with a degraded detail,
// and recovery restores full persistence.
func TestChaosFsyncEIO(t *testing.T) {
	clean := cleanBaseline(t)
	ff, s, url := faultedServer(t)

	ff.FailOp(fsx.OpSync, fsx.ErrIO)
	mustSweep(t, url, "degraded", clean)
	if op, _, degraded := s.persist.detail(); !degraded || op != opRecordPut {
		t.Fatalf("guard = (op=%q, degraded=%v), want degraded on %s", op, degraded, opRecordPut)
	}

	// Degraded is a warning, not an outage: /readyz stays 200.
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready["status"] != "ready" || ready["persist"] != "degraded" {
		t.Fatalf("readyz while degraded = %d %v, want 200 ready/degraded", resp.StatusCode, ready)
	}

	ff.Clear()
	waitPersist(t, s, "ok")
	mustSweep(t, url, "ok", clean)
	resp2 := mustSweep(t, url, "ok", clean)
	if got := resp2.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("post-recovery repeat %s = %q, want hit", HeaderCache, got)
	}
}

// TestChaosRenameFail: the sweep executes and stores its run records fine
// but the document's atomic rename fails. The response is still served
// identical; only memoization is lost.
func TestChaosRenameFail(t *testing.T) {
	clean := cleanBaseline(t)
	ff, s, url := faultedServer(t)

	// One rename per run record, then the document's.
	b, _ := bench.Get("rodinia/backprop")
	ff.FailNth(fsx.OpRename, len(b.Info().Modes())+1, fsx.ErrIO)
	mustSweep(t, url, "degraded", clean)
	if op, _, degraded := s.persist.detail(); !degraded || op != opCachePut {
		t.Fatalf("guard = (op=%q, degraded=%v), want degraded on %s", op, degraded, opCachePut)
	}

	ff.Clear()
	waitPersist(t, s, "ok")
	mustSweep(t, url, "ok", clean)
	resp := mustSweep(t, url, "ok", clean)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("post-recovery repeat %s = %q, want hit", HeaderCache, got)
	}
}

// TestQuarantineUniqueSuffixRecord: repeatedly corrupting one run
// record must preserve every quarantined specimen.
func TestQuarantineUniqueSuffixRecord(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.GCInterval = -1 })
	b, _ := bench.Get("rodinia/backprop")
	key := store.RunKey(harness.Spec{Bench: b, Mode: bench.ModeCopy, Size: bench.SizeSmall})
	path := filepath.Join(s.store.Dir(), key+".entry")
	for i := 0; i < 2; i++ {
		if err := s.store.Put(key, []byte(`{"attempts": 1}`)); err != nil {
			t.Fatal(err)
		}
		corruptFile(t, path)
		if out := s.records().Get(key); out != nil {
			t.Fatalf("corrupt record %d served", i)
		}
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("first record quarantine missing: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt.1"); err != nil {
		t.Fatalf("second record quarantine did not get a unique suffix: %v", err)
	}
}
