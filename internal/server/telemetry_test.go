package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// doJSON posts body with extra headers (the plain postJSON helper cannot
// set X-Request-Id).
func doJSON(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestVersionEndpoint: GET /version identifies the serving binary.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /version = %d; body: %s", resp.StatusCode, body)
	}
	var doc map[string]string
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("version body: %v\n%s", err, body)
	}
	if doc["go"] == "" {
		t.Fatalf("version document misses the Go toolchain: %s", body)
	}
}

// TestReadyzDrainingBody: a draining readyz answers with the literal
// plain-text body scripts and load balancers match on.
func TestReadyzDrainingBody(t *testing.T) {
	drain, cancel := context.WithCancel(context.Background())
	_, ts := newTestServer(t, func(c *Config) { c.Drain = drain })
	cancel()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if string(body) != "draining\n" {
		t.Fatalf("draining readyz body = %q, want %q", body, "draining\n")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("draining readyz Content-Type = %q, want text/plain", ct)
	}
}

// TestMetricsEndpointScrape: GET /metrics serves valid exposition text
// whose counters reflect what the server actually did.
func TestMetricsEndpointScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, func(c *Config) { c.Metrics = reg })
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		return stubSweepResults(size), nil
	}

	// One miss (executes and caches), one hit.
	for i, want := range []string{"miss", "hit"} {
		resp := postJSON(t, ts.URL+"/v1/sweep", `{}`)
		readBody(t, resp)
		if got := resp.Header.Get(HeaderCache); got != want {
			t.Fatalf("sweep %d: %s = %q, want %q", i, HeaderCache, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	st, err := metrics.Lint(body)
	if err != nil {
		t.Fatalf("scrape fails lint: %v\n%s", err, body)
	}
	if st.Families == 0 || st.Histograms == 0 {
		t.Fatalf("scrape stats = %+v, want families and histograms", st)
	}

	snap := reg.Snapshot()
	checks := map[string]float64{
		`hetsimd_cache_misses_total`:                                1,
		`hetsimd_cache_hits_total`:                                  1,
		`hetsimd_http_requests_total{route="/v1/sweep",code="200"}`: 2,
		`hetsimd_http_request_seconds_count{route="/v1/sweep"}`:     2,
		`hetsimd_gate_queue_wait_seconds_count`:                     2,
		`hetsimd_gate_in_flight_weight`:                             0,
		`hetsimd_gate_waiting`:                                      0,
	}
	for key, want := range checks {
		if got := snap[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestGateRejectionMetrics: a 429 increments the busy rejection counter
// and the in-flight gauge tracks the admitted weight live.
func TestGateRejectionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, func(c *Config) { c.Pool = 1; c.Queue = 0; c.Metrics = reg })
	started := make(chan struct{})
	unblock := make(chan struct{})
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		close(started)
		<-unblock
		return stubSweepResults(size), nil
	}
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	if got := reg.Snapshot()[`hetsimd_gate_in_flight_weight`]; got != 1 {
		t.Errorf("in-flight weight while executing = %v, want 1", got)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", `{}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep = %d, want 429", resp.StatusCode)
	}
	close(unblock)
	<-first
	if got := reg.Snapshot()[`hetsimd_rejected_total{reason="busy"}`]; got != 1 {
		t.Errorf(`rejected_total{reason="busy"} = %v, want 1`, got)
	}
	if got := reg.Snapshot()[`hetsimd_gate_in_flight_weight`]; got != 0 {
		t.Errorf("in-flight weight after drain = %v, want 0", got)
	}
}

// TestRequestIDEchoAndSanitize: the daemon echoes a client's usable
// X-Request-Id, strips hostile characters, and generates an ID otherwise.
func TestRequestIDEchoAndSanitize(t *testing.T) {
	_, ts := newTestServer(t, nil)
	get := func(id string) string {
		req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(HeaderRequestID, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		return resp.Header.Get(HeaderRequestID)
	}
	if got := get("abc-123.X_y"); got != "abc-123.X_y" {
		t.Errorf("clean ID echoed as %q", got)
	}
	if got := get("we!rd id##ü"); got != "werdid" {
		t.Errorf("hostile ID sanitized to %q, want %q", got, "werdid")
	}
	if got := get(strings.Repeat("a", 100)); got != strings.Repeat("a", 64) {
		t.Errorf("oversized ID truncated to %d bytes, want 64", len(got))
	}
	if got := get(""); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated ID = %q, want 16 hex chars", got)
	}
}

// TestRequestIDThreadedToSweep: the correlation ID reaches the sweep
// options (and so the harness's trace spans) but no store key.
func TestRequestIDThreadedToSweep(t *testing.T) {
	drain, startDrain := context.WithCancel(context.Background())
	s, ts := newTestServer(t, func(c *Config) { c.Drain = drain })
	var gotID string
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		gotID = opts.RequestID
		startDrain()
		<-opts.Ctx.Done()
		res := stubSweepResults(size)
		res.Skipped = []string{"rodinia/backprop copy"}
		return res, nil
	}
	resp := doJSON(t, ts.URL+"/v1/sweep", `{"benchmarks": ["rodinia/backprop"]}`,
		map[string]string{HeaderRequestID: "jid-42"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained sweep = %d, want 503", resp.StatusCode)
	}
	if gotID != "jid-42" {
		t.Fatalf("SweepOpts.RequestID = %q, want jid-42", gotID)
	}
}

// TestRequestIDInProgressStream: an uncached streamed sweep stamps the
// client's correlation ID on every progress event.
func TestRequestIDInProgressStream(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := doJSON(t, ts.URL+"/v1/sweep?stream=ndjson", fastSweep,
		map[string]string{HeaderRequestID: "evt-7"})
	stream := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed sweep = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "evt-7" {
		t.Fatalf("stream response %s = %q, want evt-7", HeaderRequestID, got)
	}
	progress := 0
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var f struct {
			Event string `json:"event"`
			Data  struct {
				RequestID string `json:"request_id"`
			} `json:"data"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		if f.Event != "progress" {
			continue
		}
		progress++
		if f.Data.RequestID != "evt-7" {
			t.Fatalf("progress frame request_id = %q, want evt-7: %s", f.Data.RequestID, line)
		}
	}
	if progress == 0 {
		t.Fatal("stream carried no progress frames (cached response?)")
	}
}

// syncBuf is a goroutine-safe log sink: the access-log record is written
// in a deferred middleware frame that can still be running when the
// client has its response.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuf) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuf) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestAccessLog: every request produces one structured record carrying
// its correlation ID, route, and status.
func TestAccessLog(t *testing.T) {
	var sb syncBuf
	_, ts := newTestServer(t, func(c *Config) {
		c.Log = slog.New(slog.NewJSONHandler(&sb, nil))
	})
	resp := doJSON(t, ts.URL+"/v1/sweep", `{`, map[string]string{HeaderRequestID: "log-1"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request = %d, want 400", resp.StatusCode)
	}

	// The record is written after the response commits; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var logged string
	for {
		logged = sb.String()
		if strings.Contains(logged, `"request_id":"log-1"`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{`"request_id":"log-1"`, `"path":"/v1/sweep"`, `"status":400`, `"method":"POST"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("access log misses %s:\n%s", want, logged)
		}
	}
}
