package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/store"
)

// simRuns reads the harness's started-runs counter, which every real
// simulation bumps and every reused run skips.
func simRuns() float64 { return metrics.Default.Snapshot()["sim_runs_started_total"] }

// post sends one request and returns the response and its body.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp := postJSON(t, url, body)
	return resp, readBody(t, resp)
}

// TestRunsSharedAcrossRequests is the sharing acceptance test: a sweep
// whose every run is already stored — by single runs and by another
// sweep — assembles its document without simulating, and a single run
// that a sweep already stored is served the same way. Both answers are
// byte-identical to the same request on a fresh state dir, and both
// still report a document miss.
func TestRunsSharedAcrossRequests(t *testing.T) {
	const budget = `"size": "small", "max_events": 40000`
	pair := `{"benchmarks": ["rodinia/backprop", "rodinia/nw"], ` + budget + `}`
	nwCopy := `{"benchmark": "rodinia/nw", "mode": "copy", ` + budget + `}`

	_, fresh := newTestServer(t, nil)
	_, wantPair := post(t, fresh.URL+"/v1/sweep", pair)
	_, wantRun := post(t, fresh.URL+"/v1/run", nwCopy)

	_, ts := newTestServer(t, nil)
	// Fill the store: backprop's runs one /v1/run at a time (with a
	// scheduling knob that must not matter), nw's through its own sweep.
	backprop, _ := bench.Get("rodinia/backprop")
	for _, m := range backprop.Info().Modes() {
		resp, body := post(t, ts.URL+"/v1/run", `{"benchmark": "rodinia/backprop", "mode": "`+m.String()+`", "parallel": 2, `+budget+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s = %d: %s", m, resp.StatusCode, body)
		}
	}
	post(t, ts.URL+"/v1/sweep", `{"benchmarks": ["rodinia/nw"], `+budget+`}`)

	nw, _ := bench.Get("rodinia/nw")
	total := len(backprop.Info().Modes()) + len(nw.Info().Modes())
	before := simRuns()
	resp, body := post(t, ts.URL+"/v1/sweep", pair)
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("sweep over stored runs %s = %q, want miss (its document was never stored)", HeaderCache, got)
	}
	if got := resp.Header.Get(HeaderResumed); got != strconv.Itoa(total) {
		t.Fatalf("sweep over stored runs %s = %q, want %d", HeaderResumed, got, total)
	}
	if d := simRuns() - before; d != 0 {
		t.Fatalf("sweep over stored runs started %v simulations, want 0", d)
	}
	if !bytes.Equal(body, wantPair) {
		t.Fatal("sweep over stored runs differs from the same sweep on a fresh state dir")
	}

	// The reverse: a single run the nw sweep already stored.
	before = simRuns()
	resp, body = post(t, ts.URL+"/v1/run", nwCopy)
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("run stored by a sweep %s = %q, want miss", HeaderCache, got)
	}
	if d := simRuns() - before; d != 0 {
		t.Fatalf("run stored by a sweep started %v simulations, want 0", d)
	}
	if !bytes.Equal(body, wantRun) {
		t.Fatal("run stored by a sweep differs from the same run on a fresh state dir")
	}
}

// TestRunDocKeyDistinctFromRunKey: a /v1/run document and the run record
// it is built from hash the same inputs, but under different keys.
func TestRunDocKeyDistinctFromRunKey(t *testing.T) {
	p, err := resolveRun(&RunRequest{Benchmark: "rodinia/backprop", RunKnobs: RunKnobs{MaxEvents: 100}})
	if err != nil {
		t.Fatal(err)
	}
	key := store.RunKey(p.spec)
	if key == p.fingerprint || strings.TrimPrefix(key, store.RunKeyPrefix) == p.fingerprint {
		t.Fatalf("run record key %s collides with the document key %s", key, p.fingerprint)
	}
}

// TestLocksReleased: the per-fingerprint singleflight locks are
// reference-counted, so after concurrent identical and distinct sweeps
// finish the lock map is empty; the identical pair still coalesces.
func TestLocksReleased(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, func(c *Config) { c.Pool = 4; c.Queue = 4; c.Metrics = reg })
	release := make(chan struct{})
	var executed atomic.Int32
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		executed.Add(1)
		<-release
		return stubSweepResults(size), nil
	}
	same := `{"benchmarks": ["rodinia/backprop"]}`
	var wg sync.WaitGroup
	for _, body := range []string{same, same, `{"benchmarks": ["rodinia/bfs"]}`} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("sweep %s = %d", body, resp.StatusCode)
			}
		}()
	}
	// Wait until both fingerprints execute and the duplicate waits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.locksMu.Lock()
		refs := 0
		for _, l := range s.locks {
			refs += l.refs
		}
		n := len(s.locks)
		s.locksMu.Unlock()
		if n == 2 && refs == 3 && executed.Load() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("locks never reached 2 keys / 3 holders (have %d / %d)", n, refs)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	s.locksMu.Lock()
	left := len(s.locks)
	s.locksMu.Unlock()
	if left != 0 {
		t.Fatalf("%d singleflight locks left after every request finished", left)
	}
	if got := reg.Snapshot()["hetsimd_coalesced_total"]; got != 1 {
		t.Fatalf("coalesced_total = %v, want 1 (the identical pair)", got)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("executed %d sweeps, want 2", got)
	}
}

// TestGCSavesRecencySidecar: the recency sidecar is written by every GC
// pass that saw an access and once more by Close, so a restarted daemon
// evicts in access order without any eviction having happened.
func TestGCSavesRecencySidecar(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.GCInterval = -1
	})
	s.runOne = func(spec harness.Spec) *harness.Outcome {
		return &harness.Outcome{Attempts: 1, Size: spec.Size, Events: 7}
	}
	docKey := func(body string) string {
		var req RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		p, err := resolveRun(&req)
		if err != nil {
			t.Fatal(err)
		}
		return p.fingerprint
	}
	reqs := []string{`{"benchmark": "rodinia/backprop"}`, `{"benchmark": "rodinia/bfs"}`, `{"benchmark": "rodinia/nw"}`}
	// Serve each once, then repeat the one whose key sorts first, so
	// access order and key order disagree.
	first := 0
	for i, r := range reqs {
		post(t, ts.URL+"/v1/run", r)
		if docKey(r) < docKey(reqs[first]) {
			first = i
		}
	}
	want := make([]string, 0, len(reqs))
	for i, r := range reqs {
		if i != first {
			want = append(want, docKey(r))
		}
	}
	want = append(want, docKey(reqs[first]))
	if resp, _ := post(t, ts.URL+"/v1/run", reqs[first]); resp.Header.Get(HeaderCache) != "hit" {
		t.Fatal("repeat run was not a hit")
	}

	docOrder := func(st *store.Store) []string {
		isDoc := map[string]bool{}
		for _, k := range want {
			isDoc[k] = true
		}
		var got []string
		for _, e := range st.LRU() {
			if isDoc[e.Key] {
				got = append(got, e.Key)
			}
		}
		return got
	}
	restart := func() *store.Store {
		st, err := store.Open(nil, filepath.Join(dir, "cache"), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	s.runGC(false)
	if got := docOrder(restart()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("LRU order after GC and restart = %v, want %v", got, want)
	}

	// One more access, then Close: its save records it.
	again := docKey(reqs[(first+1)%len(reqs)])
	if resp, _ := post(t, ts.URL+"/v1/run", reqs[(first+1)%len(reqs)]); resp.Header.Get(HeaderCache) != "hit" {
		t.Fatal("repeat run was not a hit")
	}
	var moved []string
	for _, k := range want {
		if k != again {
			moved = append(moved, k)
		}
	}
	want = append(moved, again)
	s.Close()
	if got := docOrder(restart()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("LRU order after Close and restart = %v, want %v", got, want)
	}
}
