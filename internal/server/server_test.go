package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/store"

	_ "repro/internal/suites/rodinia"
)

// newTestServer builds a Server over a temp state dir and mounts it on an
// httptest server. mutate may adjust the config (and the returned Server's
// seams may be stubbed before issuing requests).
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		StateDir:   t.TempDir(),
		Pool:       1,
		Queue:      4,
		RetryAfter: time.Second,
		Logf:       t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// stubSweepResults is a minimal completed sweep for seam stubs.
func stubSweepResults(size bench.Size) *experiments.Results {
	return &experiments.Results{Size: size}
}

// TestSweepQueueFull429: with every slot held and no waiting line, a
// second sweep is rejected with 429 and a Retry-After hint — admission
// control, not unbounded queueing.
func TestSweepQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Pool = 1; c.Queue = 0 })
	started := make(chan struct{})
	unblock := make(chan struct{})
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		close(started)
		<-unblock
		return stubSweepResults(size), nil
	}
	first := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Error(err)
		}
		first <- resp
	}()
	<-started

	resp := postJSON(t, ts.URL+"/v1/sweep", `{}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] != "busy" {
		t.Fatalf("429 body = %s (err=%v), want error=busy", body, err)
	}

	close(unblock)
	if resp := <-first; resp != nil {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first sweep status = %d, want 200; body: %s", resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
	}
}

// TestSweepDeadlineWhileQueued: a queued request whose deadline expires
// leaves the line with a 504 instead of waiting forever.
func TestSweepDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Pool = 1; c.Queue = 4 })
	started := make(chan struct{})
	unblock := make(chan struct{})
	defer close(unblock)
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		close(started)
		<-unblock
		return stubSweepResults(size), nil
	}
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	resp := postJSON(t, ts.URL+"/v1/sweep", `{"deadline_ms": 50}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued+expired status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 response missing Retry-After: the wait was this server's congestion")
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] != "deadline" {
		t.Fatalf("504 body = %s, want error=deadline", body)
	}
}

// TestRunDeadlineCanceledOutcome: a real run whose request deadline fires
// mid-simulation comes back 200 with a structured canceled outcome — and
// is never cached, so a retry actually re-executes.
func TestRunDeadlineCanceledOutcome(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := `{"benchmark": "rodinia/srad", "size": "medium", "deadline_ms": 20}`

	for i, wantCache := range []string{"miss", "miss"} {
		resp := postJSON(t, ts.URL+"/v1/run", req)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: status = %d, want 200; body: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(HeaderCache); got != wantCache {
			t.Fatalf("attempt %d: %s = %q, want %q (canceled outcomes must not be cached)",
				i, HeaderCache, got, wantCache)
		}
		var doc harness.OutcomeJSON
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("attempt %d: bad outcome JSON: %v\n%s", i, err, body)
		}
		if doc.Error == nil || doc.Error.Kind != "canceled" {
			t.Fatalf("attempt %d: outcome error = %+v, want kind=canceled", i, doc.Error)
		}
		if doc.WallMs != 0 {
			t.Fatalf("attempt %d: wall_ms = %v leaked into the document", i, doc.WallMs)
		}
	}
}

// fastSweep is the cheap real sweep the integration-ish tests use: one
// benchmark, small size, tight event budget.
const fastSweep = `{"benchmarks": ["rodinia/backprop"], "size": "small", "max_events": 40000}`

// TestSweepCacheLifecycle drives the full memoization story against the
// real simulator: miss (execute, store runs and document), hit
// (byte-identical, no re-execution), corrupt document (quarantine,
// reassemble from the stored runs, byte-identical again).
func TestSweepCacheLifecycle(t *testing.T) {
	s, ts := newTestServer(t, nil)

	resp := postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	clean := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sweep status = %d; body: %s", resp.StatusCode, clean)
	}
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("first sweep %s = %q, want miss", HeaderCache, got)
	}
	if got := resp.Header.Get(HeaderResumed); got != "0" {
		t.Fatalf("first sweep %s = %q, want 0", HeaderResumed, got)
	}
	if bytes.Contains(clean, []byte("wall_ms")) {
		t.Fatal("sweep document leaked wall_ms; responses must be deterministic")
	}
	// Every run of the sweep is stored as its own record.
	b, _ := bench.Get("rodinia/backprop")
	if recs := runRecords(t, s); len(recs) != len(b.Info().Modes()) {
		t.Fatalf("run records after completed sweep = %v, want one per mode", recs)
	}

	// Hit: same bytes, no execution (seam trips the test if called).
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		t.Error("cache hit executed the sweep")
		return stubSweepResults(size), nil
	}
	resp = postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	hit := readBody(t, resp)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("second sweep %s = %q, want hit", HeaderCache, got)
	}
	if !bytes.Equal(hit, clean) {
		t.Fatal("cache hit body differs from the original response")
	}

	// Corrupt the document: quarantine + reassemble, byte-identical again.
	s.runSweep = experiments.RunSweep
	var req SweepRequest
	if err := json.Unmarshal([]byte(fastSweep), &req); err != nil {
		t.Fatal(err)
	}
	p, err := resolveSweep(&req, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(s.store.Dir(), p.fingerprint+".entry")
	corruptFile(t, doc)
	resp = postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	recomputed := readBody(t, resp)
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("post-corruption sweep %s = %q, want miss", HeaderCache, got)
	}
	if !bytes.Equal(recomputed, clean) {
		t.Fatal("recomputed body differs from the original response")
	}
	if got := resp.Header.Get(HeaderResumed); got != strconv.Itoa(len(b.Info().Modes())) {
		t.Fatalf("post-corruption sweep %s = %q, want every run reused", HeaderResumed, got)
	}
	if _, err := os.Stat(doc + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
}

// TestSweepStream: a streamed request emits progress frames and ends with
// a result frame whose payload is byte-identical to the non-streamed
// (cached) response.
func TestSweepStream(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweep?stream=ndjson", fastSweep)
	stream := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed sweep status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream has %d frames, want progress + result", len(lines))
	}
	var frames []struct {
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	progress := 0
	var result json.RawMessage
	for _, line := range lines {
		var f struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
		switch f.Event {
		case "progress":
			progress++
		case "result":
			result = f.Data
		case "error":
			t.Fatalf("stream error frame: %s", f.Data)
		}
	}
	if progress == 0 {
		t.Fatal("stream carried no progress frames")
	}
	if last := frames[len(frames)-1]; last.Event != "result" {
		t.Fatalf("last frame is %q, want result", last.Event)
	}

	// The same request non-streamed is a cache hit with the same document.
	resp = postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	cached := readBody(t, resp)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("follow-up %s = %q, want hit", HeaderCache, got)
	}
	// Frames are compacted (newline-free), so compare JSON values.
	var a, b any
	if err := json.Unmarshal(result, &a); err != nil {
		t.Fatalf("result frame: %v", err)
	}
	if err := json.Unmarshal(cached, &b); err != nil {
		t.Fatalf("cached body: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("streamed result differs from cached response")
	}
}

// TestDrainingRejects: once the Drain context ends, readyz flips to 503
// and new work is refused with the draining error.
func TestDrainingRejects(t *testing.T) {
	drain, cancel := context.WithCancel(context.Background())
	_, ts := newTestServer(t, func(c *Config) { c.Drain = drain })

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	cancel()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/sweep", `{}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain = %d, want 503; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection missing Retry-After")
	}

	// healthz stays 200 (liveness, not readiness) and reports the drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(hb, []byte(`"draining":true`)) {
		t.Fatalf("healthz during drain = %d %s", resp.StatusCode, hb)
	}
}

// TestPanicIsolation: a panic inside request handling becomes a 500 for
// that request; the process (and subsequent requests) survive.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.runOne = func(spec harness.Spec) *harness.Outcome { panic("server-layer bug") }

	resp := postJSON(t, ts.URL+"/v1/run", `{"benchmark": "rodinia/backprop"}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500; body: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] != "internal" {
		t.Fatalf("500 body = %s, want error=internal", body)
	}

	// The server still works.
	s.runOne = func(spec harness.Spec) *harness.Outcome {
		return &harness.Outcome{Attempts: 1, Size: spec.Size, Events: 7}
	}
	resp = postJSON(t, ts.URL+"/v1/run", `{"benchmark": "rodinia/backprop"}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request = %d; body: %s", resp.StatusCode, body)
	}
}

// TestRunCacheHit: a completed run is memoized; the repeat request serves
// the stored bytes without re-executing.
func TestRunCacheHit(t *testing.T) {
	s, ts := newTestServer(t, nil)
	calls := 0
	s.runOne = func(spec harness.Spec) *harness.Outcome {
		calls++
		return &harness.Outcome{Attempts: 1, Size: spec.Size, Events: 42}
	}
	req := `{"benchmark": "rodinia/backprop", "max_events": 100}`
	r1 := postJSON(t, ts.URL+"/v1/run", req)
	b1 := readBody(t, r1)
	r2 := postJSON(t, ts.URL+"/v1/run", req)
	b2 := readBody(t, r2)
	if calls != 1 {
		t.Fatalf("runOne called %d times, want 1", calls)
	}
	if r2.Header.Get(HeaderCache) != "hit" || !bytes.Equal(b1, b2) {
		t.Fatalf("repeat run not served from cache (%s=%q)", HeaderCache, r2.Header.Get(HeaderCache))
	}
	// A different budget is a different experiment: distinct cache key.
	r3 := postJSON(t, ts.URL+"/v1/run", `{"benchmark": "rodinia/backprop", "max_events": 200}`)
	readBody(t, r3)
	if calls != 2 || r3.Header.Get(HeaderCache) != "miss" {
		t.Fatalf("changed budget reused the cache (calls=%d, %s=%q)", calls, HeaderCache, r3.Header.Get(HeaderCache))
	}
}

// TestBadRequests: malformed and invalid requests all map to structured
// 400s (405 for wrong methods) without touching the simulator.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		t.Error("invalid request reached the simulator")
		return stubSweepResults(size), nil
	}
	s.runOne = func(spec harness.Spec) *harness.Outcome {
		t.Error("invalid request reached the simulator")
		return &harness.Outcome{}
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"not json", "/v1/sweep", `{`, 400},
		{"unknown field", "/v1/sweep", `{"benchmrks": ["x"]}`, 400},
		{"trailing garbage", "/v1/sweep", `{} {}`, 400},
		{"unknown benchmark", "/v1/sweep", `{"benchmarks": ["nope/nothere"]}`, 400},
		{"bad size", "/v1/sweep", `{"size": "jumbo"}`, 400},
		{"negative deadline", "/v1/sweep", `{"deadline_ms": -1}`, 400},
		{"jitter out of range", "/v1/sweep", `{"jitter": 1.5}`, 400},
		{"negative jobs", "/v1/sweep", `{"jobs": -2}`, 400},
		{"bad fault plan", "/v1/sweep", `{"fault": "pcie=banana"}`, 400},
		{"bad stream", "/v1/sweep?stream=xml", `{}`, 400},
		{"run without benchmark", "/v1/run", `{}`, 400},
		{"run unknown benchmark", "/v1/run", `{"benchmark": "nope/nothere"}`, 400},
		{"run bad mode", "/v1/run", `{"benchmark": "rodinia/backprop", "mode": "warp-speed"}`, 400},
		{"deadline overflows", "/v1/sweep", `{"deadline_ms": 18446744073710}`, 400},
		{"timeout overflows", "/v1/sweep", `{"timeout_ms": 9223372036855}`, 400},
		{"run deadline overflows", "/v1/run", `{"benchmark": "rodinia/backprop", "deadline_ms": 18446744073710}`, 400},
		{"run timeout overflows", "/v1/run", `{"benchmark": "rodinia/backprop", "timeout_ms": 9223372036855}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.want, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not structured: %s", body)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sweep = %d, want 405", resp.StatusCode)
	}
}

// TestBenchmarksEndpoint: the registry listing names every registered
// benchmark with its modes.
func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var rows []benchmarkInfo
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("bad listing: %v\n%s", err, body)
	}
	found := false
	for _, row := range rows {
		if row.Name == "rodinia/backprop" {
			found = true
			// backprop supports every organization; the listing must
			// report the complete capability set, not just the names.
			want := []string{"copy", "limited-copy", "async-streams", "parallel-chunked"}
			if !reflect.DeepEqual(row.Modes, want) {
				t.Fatalf("rodinia/backprop modes = %v, want %v", row.Modes, want)
			}
		}
	}
	if !found {
		t.Fatalf("listing misses rodinia/backprop: %s", body)
	}
}

// TestSweepDrainMidRun: a drain that begins while a sweep is executing
// turns the response into a 503 that reports checkpoint progress; the
// sweep wrote through the run store, so the resubmission resumes.
func TestSweepDrainMidRun(t *testing.T) {
	drain, startDrain := context.WithCancel(context.Background())
	s, ts := newTestServer(t, func(c *Config) { c.Drain = drain })
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		if opts.Store == nil {
			t.Error("sweep ran without the run store")
		}
		startDrain()
		<-opts.Ctx.Done() // dispatch context must observe the drain
		res := stubSweepResults(size)
		res.Skipped = []string{"rodinia/backprop copy"}
		return res, nil
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"benchmarks": ["rodinia/backprop"]}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained sweep = %d, want 503; body: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("resubmit")) {
		t.Fatalf("drained sweep does not advertise resume: %s", body)
	}
}

// TestCorruptRecordQuarantined: a damaged run record must not wedge its
// run — the server quarantines it, simulates the run again, and answers
// byte-identically.
func TestCorruptRecordQuarantined(t *testing.T) {
	clean := cleanBaseline(t)
	s, ts := newTestServer(t, nil)
	var req SweepRequest
	if err := json.Unmarshal([]byte(fastSweep), &req); err != nil {
		t.Fatal(err)
	}
	p, err := resolveSweep(&req, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bench.Get("rodinia/backprop")
	key := store.RunKey(harness.Spec{Bench: b, Mode: bench.ModeCopy, Size: bench.SizeSmall,
		Budget: p.opts.Budget})
	path := filepath.Join(s.store.Dir(), key+".entry")
	if err := os.WriteFile(path, []byte("not a record at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, clean) {
		t.Fatalf("sweep over a corrupt record = %d, identical=%v; body: %s", resp.StatusCode, bytes.Equal(body, clean), body)
	}
	if got := resp.Header.Get(HeaderResumed); got != "0" {
		t.Fatalf("%s = %q, want 0: the corrupt record must not be reused", HeaderResumed, got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
}

// TestHealthz: liveness reports gate and cache state.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var doc struct {
		Status string    `json:"status"`
		Gate   GateStats `json:"gate"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, body)
	}
	if doc.Status != "ok" || doc.Gate.Slots != 1 {
		t.Fatalf("healthz = %s", body)
	}
}
