// Package server is the sweep-as-a-service layer: the HTTP daemon
// (cmd/hetsimd) that accepts run and sweep requests, executes them on the
// bounded simulation pool, and serves the same SweepDoc/OutcomeJSON
// documents the CLI commands export. One warm process amortizes setup
// across many tenants — the CrystalGPU-style management layer the roadmap
// calls for — so the design center is failure behavior, not features:
//
//   - Admission control: a weighted gate caps concurrent simulations at
//     the configured pool size and bounds the waiting line; beyond that,
//     requests fail fast with 429 + Retry-After instead of queueing
//     without bound.
//   - Request isolation: every request's simulations run under the
//     fault-tolerant harness (a panicking or livelocked run fails that
//     request with a structured error, never the process), per-request
//     deadlines cancel through the engines' periodic checks, and a
//     handler-level recover turns server bugs into 500s.
//   - Durability: one CRC-verified content-addressed store (internal/store)
//     holds every completed run under its run key and every completed
//     response under a hash of its runs' keys. A run is its own
//     checkpoint, so a killed daemon resumes rather than restarts, and any
//     request reuses the runs an earlier run or sweep already simulated;
//     a repeated request is a disk read. Corrupt entries quarantine and
//     recompute — the store self-heals instead of refusing service.
//   - Graceful drain: the Drain context (first SIGTERM) stops admission
//     and stops dispatching new runs inside in-flight sweeps; what has
//     completed is stored and the client is told to resubmit. The Hard
//     context (second signal) aborts in-flight runs too.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Response headers the daemon sets; tests and operators key off them.
const (
	// HeaderCache reports whether this request's response document was
	// already stored ("hit") or had to be assembled ("miss"). A miss may
	// still simulate nothing when every run it needs is stored.
	HeaderCache = "X-Hetsimd-Cache"
	// HeaderResumed reports how many of a sweep's runs were reused from
	// the run store instead of simulated (a restart resuming interrupted
	// work, or runs an earlier request already completed).
	HeaderResumed = "X-Hetsimd-Resumed"
	// HeaderWallMs reports the handler's wall-clock cost in ms. The
	// response bodies themselves carry no wall times — those are scrubbed
	// so identical requests produce byte-identical (and so cacheable)
	// documents.
	HeaderWallMs = "X-Hetsimd-Wall-Ms"
	// HeaderPersist reports the daemon's persistence health for this
	// response: "ok", or "degraded" when a state-dir failure has the
	// daemon serving correct results from memory without storing them
	// (see persistGuard).
	HeaderPersist = "X-Hetsimd-Persist"
)

// Config parameterizes a Server.
type Config struct {
	// StateDir roots the daemon's durable state: StateDir/cache is the
	// run store (run records and response documents). Required.
	StateDir string
	// Pool caps concurrently executing simulations across all requests
	// (0 = GOMAXPROCS). This is the hard bound admission enforces.
	Pool int
	// Queue caps requests waiting for pool slots; a request beyond it is
	// rejected with 429 (0 = no waiting: full pool means reject).
	Queue int
	// RetryAfter is the hint sent with 429/503 responses (0 = 2s).
	RetryAfter time.Duration
	// Drain, when done, puts the server into drain: readyz flips to 503,
	// new requests are rejected, in-flight sweeps stop dispatching runs
	// and store what completed. Nil = never drains.
	Drain context.Context
	// Hard, when done, aborts in-flight runs through engine cancellation
	// (the second-signal stage). Nil = never.
	Hard context.Context
	// Logf receives operational diagnostics (nil discards).
	Logf func(format string, args ...any)
	// Log receives the structured access log: one record per request, with
	// the correlation ID, route, status, and duration. Nil discards them.
	Log *slog.Logger
	// Metrics is the registry the server's families register in and the
	// one GET /metrics serves. Nil means metrics.Default — the registry
	// the harness layer already feeds, so one scrape covers
	// HTTP, admission, cache, and run-lifecycle counters together.
	Metrics *metrics.Registry
	// FS is the filesystem every persistence operation goes through —
	// the run store, GC, the recovery probe. Nil means the
	// real OS filesystem; the chaos tests inject an *fsx.Fault here to
	// script disk failures underneath live requests.
	FS fsx.FS
	// StateQuota caps the state dir's total size in bytes. When a pass of
	// the garbage collector (or a completed request) finds the dir over
	// budget, least-recently-used store entries are evicted until it
	// fits; evicted keys recompute on next request. 0 = no limit.
	StateQuota int64
	// GCInterval spaces the periodic state-dir garbage-collection passes
	// (orphaned temp files, aged quarantines, quota enforcement, the
	// recency sidecar). 0 = every minute; negative disables the periodic
	// loop (the startup pass still runs).
	GCInterval time.Duration
	// CorruptAge is how long quarantined *.corrupt files are kept for
	// post-mortem inspection before GC reclaims them. 0 = 24h.
	CorruptAge time.Duration
	// StreamWriteTimeout bounds each frame write on a streamed
	// (?stream=sse|ndjson) response; a client that stalls longer is
	// disconnected and its request canceled, so a dead reader cannot
	// park a pool worker on a full socket buffer. 0 = 1m; negative
	// disables the deadline.
	StreamWriteTimeout time.Duration
	// ProbeInterval is the initial backoff of the persistence recovery
	// probe after the daemon degrades (doubles per failure, capped at
	// 30s). 0 = 1s.
	ProbeInterval time.Duration
}

// Server is the sweep-as-a-service request layer. Build with New, mount
// with Handler, release with Close.
type Server struct {
	cfg     Config
	fs      fsx.FS
	gate    *Gate
	store   *store.Store
	m       *serverMetrics
	persist *persistGuard

	// locks holds one singleflight mutex per sweep fingerprint in use,
	// reference-counted so the map holds only fingerprints some request
	// is executing or waiting on.
	locksMu sync.Mutex
	locks   map[string]*keyLock

	// stopGC ends the periodic GC loop; gc waits for it to exit.
	stopGC context.CancelFunc
	gc     sync.WaitGroup

	// Execution seams, overridden by tests to substitute deterministic
	// stand-ins for the simulator.
	runSweep func(bench.Size, experiments.SweepOpts) (*experiments.Results, []harness.RunError)
	runOne   func(harness.Spec) *harness.Outcome
}

// New builds a Server over cfg, creating the state layout on disk.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("server: Config.StateDir is required")
	}
	if cfg.Pool <= 0 {
		cfg.Pool = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.Drain == nil {
		cfg.Drain = context.Background()
	}
	if cfg.Hard == nil {
		cfg.Hard = context.Background()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	if cfg.FS == nil {
		cfg.FS = fsx.OS
	}
	if cfg.GCInterval == 0 {
		cfg.GCInterval = time.Minute
	}
	if cfg.CorruptAge == 0 {
		cfg.CorruptAge = 24 * time.Hour
	}
	if cfg.StreamWriteTimeout == 0 {
		cfg.StreamWriteTimeout = time.Minute
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	st, err := store.Open(cfg.FS, filepath.Join(cfg.StateDir, "cache"), cfg.Logf)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	m := newServerMetrics(cfg.Metrics)
	st.OnQuarantine = m.cacheQuarantined.Inc
	gate := NewGate(cfg.Pool, cfg.Queue)
	gate.Instrument(m.inFlight, m.waiting)
	s := &Server{
		cfg:      cfg,
		fs:       cfg.FS,
		gate:     gate,
		store:    st,
		locks:    map[string]*keyLock{},
		m:        m,
		runSweep: experiments.RunSweep,
		runOne:   harness.Run,
	}
	s.persist = &persistGuard{s: s}
	// Startup GC: reclaim what a previous process's crash left behind
	// (half-written temp files) before serving, then keep the dir tidy
	// periodically. Close saves the recency sidecar once more, so a
	// restart keeps the accesses since the last GC pass.
	s.runGC(true)
	var gcCtx context.Context
	gcCtx, s.stopGC = context.WithCancel(cfg.Drain)
	if cfg.GCInterval > 0 {
		s.gc.Add(1)
		go s.gcLoop(gcCtx)
	}
	return s, nil
}

// Close, called once the HTTP server has shut down, stops the periodic GC,
// waits for it to exit and saves the store's recency sidecar: after it
// returns the server writes nothing more to its state dir on its own.
func (s *Server) Close() {
	s.stopGC()
	s.gc.Wait()
	s.store.SaveIndex()
}

// Handler returns the daemon's HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	return s.middleware(mux)
}

// draining reports whether the first shutdown stage has begun.
func (s *Server) draining() bool { return s.cfg.Drain.Err() != nil }

// statusWriter tracks whether a handler already committed a status (so
// the panic recovery layer knows whether a 500 can still be sent) and
// which one, for the request metrics and access log.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
	code  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
	}
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// status reports the committed response code (200 for an implicit commit).
func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// is how streamed responses reach the real connection's Flush and
// per-write deadlines. statusWriter deliberately implements no Flush of
// its own: a swallowing Flush here would mask the write errors the
// slow-client guard keys off.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// routeLabel maps a request path to its metrics label. The set is fixed —
// unknown paths collapse to "other" — so a scanner probing random URLs
// cannot inflate label cardinality.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/version", "/metrics", "/v1/benchmarks", "/v1/sweep", "/v1/run":
		return path
	}
	return "other"
}

// probeRoute reports whether a route is an operational probe, whose access
// log records go out at debug level so a scraper polling every few seconds
// does not drown the request log.
func probeRoute(route string) bool {
	switch route {
	case "/healthz", "/readyz", "/version", "/metrics":
		return true
	}
	return false
}

// middleware wraps every handler with the per-request cross-cutting
// layers, outermost first: correlation ID (accept/echo X-Request-Id,
// generate otherwise, thread through the context), panic recovery (a
// server-layer bug fails that request with a 500 and a logged stack,
// never the process — simulation panics are already recovered by the
// harness), and, on the way out, the request counter, latency histogram,
// and structured access log record.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := ensureRequestID(r)
		w.Header().Set(HeaderRequestID, id)
		r = r.WithContext(withRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		route := routeLabel(r.URL.Path)
		defer func() {
			if v := recover(); v != nil {
				s.cfg.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if !sw.wrote {
					writeJSONError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			elapsed := time.Since(t0)
			code := sw.status()
			s.m.requests.With(route, strconv.Itoa(code)).Inc()
			s.m.latency.With(route).Observe(elapsed.Seconds())
			level := slog.LevelInfo
			if probeRoute(route) {
				level = slog.LevelDebug
			}
			s.cfg.Log.LogAttrs(r.Context(), level, "request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", code),
				slog.Int64("dur_ms", elapsed.Milliseconds()),
				slog.String("remote", r.RemoteAddr))
		}()
		next.ServeHTTP(sw, r)
	})
}

// writeJSONError writes the uniform error document:
// {"error": code, "message": msg}.
func writeJSONError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": code, "message": msg})
}

// fail routes an error to the right medium: an in-progress stream gets a
// terminal error frame (the status line is long gone); anything else gets
// a plain JSON error response.
func (s *Server) fail(w http.ResponseWriter, st *streamer, status int, code, msg string) {
	if st != nil && st.started {
		st.fail(code, msg)
		return
	}
	writeJSONError(w, status, code, msg)
}

// retryAfter stamps the Retry-After hint on throttling responses.
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// mergeCtx derives a context canceled when either a or b is. The release
// func must be called to free the propagation hook.
func mergeCtx(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":        "ok",
		"draining":      s.draining(),
		"persist":       s.persist.status(),
		"gate":          s.gate.Stats(),
		"cache_entries": s.store.Len(),
		"state_bytes":   s.m.stateBytes.Value(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		// A draining server is distinguishable from a crashed or
		// overloaded one by the literal body: load balancers and scripts
		// match the word, not a JSON shape.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	// Degraded persistence is a warning, not an outage: the daemon still
	// serves correct results from memory, so it stays ready (200) and
	// only the detail flips — pulling a degraded instance out of rotation
	// would turn a disk hiccup into lost capacity.
	doc := map[string]string{"status": "ready", "persist": s.persist.status()}
	if op, perr, degraded := s.persist.detail(); degraded {
		doc["persist_op"] = op
		if perr != nil {
			doc["persist_error"] = perr.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleVersion reports what binary is serving: module path and version,
// Go toolchain, and the VCS stamp when the build carried one.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	doc := map[string]string{"go": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		doc["path"] = bi.Path
		doc["module"] = bi.Main.Path
		doc["version"] = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				doc["revision"] = kv.Value
			case "vcs.time":
				doc["build_time"] = kv.Value
			case "vcs.modified":
				doc["dirty"] = kv.Value
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := s.cfg.Metrics.WriteText(w); err != nil {
		s.cfg.Logf("metrics: %v", err)
	}
}

// benchmarkInfo is one row of GET /v1/benchmarks. Modes lists every
// organization the benchmark supports — the two baseline modes plus any
// restructured organizations — so clients can request overlapped sweeps
// without trial-and-error; ExtraModes repeats just the restructured ones
// for older clients.
type benchmarkInfo struct {
	Name       string   `json:"name"`
	Desc       string   `json:"desc"`
	Modes      []string `json:"modes"`
	ExtraModes []string `json:"extra_modes,omitempty"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var rows []benchmarkInfo
	for _, b := range bench.All() {
		info := b.Info()
		row := benchmarkInfo{Name: info.FullName(), Desc: info.Desc}
		for _, m := range info.Modes() {
			row.Modes = append(row.Modes, m.String())
		}
		for _, m := range info.ExtraModes {
			row.ExtraModes = append(row.ExtraModes, m.String())
		}
		rows = append(rows, row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

// admit performs the shared admission steps: drain check, deadline
// wiring, gate entry. It returns the request context (with any deadline
// applied), the gate release, and false if the response has already been
// written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, deadline time.Duration, weight int) (context.Context, context.CancelFunc, func(), bool) {
	if s.draining() {
		s.m.rejectedDraining.Inc()
		s.retryAfter(w)
		writeJSONError(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against another instance or after restart")
		return nil, nil, nil, false
	}
	reqCtx := r.Context()
	var cancel context.CancelFunc
	if deadline > 0 {
		reqCtx, cancel = context.WithTimeout(reqCtx, deadline)
	} else {
		// Always cancelable: the slow-client guard aborts a request whose
		// stream reader stalled by canceling this context.
		reqCtx, cancel = context.WithCancel(reqCtx)
	}
	wait0 := time.Now()
	release, err := s.gate.Admit(reqCtx, weight)
	s.m.queueWait.Observe(time.Since(wait0).Seconds())
	if err != nil {
		cancel()
		switch {
		case errors.Is(err, ErrBusy):
			s.m.rejectedBusy.Inc()
			s.retryAfter(w)
			writeJSONError(w, http.StatusTooManyRequests, "busy",
				fmt.Sprintf("all %d simulation slots busy and the waiting line (%d) is full", s.cfg.Pool, s.cfg.Queue))
		case errors.Is(err, context.DeadlineExceeded):
			// The deadline was the client's, but the wait was this server's
			// congestion: hint when to retry, as the 429 path does.
			s.m.rejectedQueueDeadline.Inc()
			s.retryAfter(w)
			writeJSONError(w, http.StatusGatewayTimeout, "deadline", "request deadline expired while queued for admission")
		default:
			// Client went away while queued; nothing useful to write.
			s.m.rejectedCanceled.Inc()
		}
		return nil, nil, nil, false
	}
	return reqCtx, cancel, release, true
}

// serveDoc writes a completed JSON document with the daemon's telemetry
// headers, through the stream when one is active. It is the one place
// every completed request exits through, so the cache hit/miss counters
// live here and each request counts exactly once.
func (s *Server) serveDoc(w http.ResponseWriter, st *streamer, body []byte, cache string, wall time.Duration) {
	if cache == "hit" {
		s.m.cacheHits.Inc()
	} else {
		s.m.cacheMisses.Inc()
	}
	persist := s.persist.status()
	if st != nil {
		if !st.started {
			w.Header().Set(HeaderCache, cache)
			w.Header().Set(HeaderWallMs, strconv.FormatInt(wall.Milliseconds(), 10))
			w.Header().Set(HeaderPersist, persist)
		}
		st.result(body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderCache, cache)
	w.Header().Set(HeaderWallMs, strconv.FormatInt(wall.Milliseconds(), 10))
	w.Header().Set(HeaderPersist, persist)
	w.Write(body)
}

// keyLock is one fingerprint's singleflight mutex and its holder count.
type keyLock struct {
	mu   sync.Mutex
	refs int // requests holding or waiting on mu
}

// lockKey takes the singleflight lock for a sweep fingerprint: concurrent
// identical sweep requests must not both simulate, so the second waits
// and then (typically) finds the first's stored document. The returned
// func unlocks and drops the entry once its last holder is done.
func (s *Server) lockKey(fp string) (unlock func()) {
	s.locksMu.Lock()
	l := s.locks[fp]
	if l == nil {
		l = &keyLock{}
		s.locks[fp] = l
	}
	l.refs++
	s.locksMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.locksMu.Lock()
		if l.refs--; l.refs == 0 {
			delete(s.locks, fp)
		}
		s.locksMu.Unlock()
	}
}

// records is the run-record view a request reads and writes through, or
// nil while persistence is degraded: a nil view ignores every call, so
// the request runs entirely from memory and its response is identical.
func (s *Server) records() *store.Records {
	if !s.persist.ok() {
		return nil
	}
	return s.store.Records()
}

// storeDoc memoizes a completed response document under its request
// fingerprint. The store is an accelerator here: failure to memoize
// degrades persistence but never fails the request.
func (s *Server) storeDoc(fp string, body []byte) {
	if !s.persist.ok() {
		return
	}
	if err := s.store.Put(fp, body); err != nil {
		s.persist.degrade(opCachePut, err)
		return
	}
	if s.cfg.StateQuota > 0 {
		s.enforceQuota()
	}
}

// interruption classifies why a sweep came back incomplete: canceled
// outcomes and never-dispatched slots both mean the request was cut short
// (drain, deadline, or client disconnect) and the document must be
// neither served as complete nor cached.
func interruption(res *experiments.Results) bool {
	if len(res.Skipped) > 0 {
		return true
	}
	for i := range res.Failed {
		if res.Failed[i].Kind == harness.KindCanceled {
			return true
		}
	}
	return false
}

// scrubSweepDoc zeroes the document's wall-clock telemetry. Wall times
// are the one nondeterministic ingredient of a sweep document; scrubbed,
// identical requests produce byte-identical documents — which is what
// makes the result cache coherent and lets a resumed sweep's response
// match an uninterrupted one's exactly. The handler's real wall cost is
// reported out of band in the X-Hetsimd-Wall-Ms header.
func scrubSweepDoc(doc *experiments.SweepDoc) {
	for i := range doc.Runs {
		doc.Runs[i].WallMs = 0
	}
	for i := range doc.Footnotes.Failed {
		doc.Footnotes.Failed[i].WallMs = 0
	}
}

// scrubOutcome does the same for a single-run document.
func scrubOutcome(doc *harness.OutcomeJSON) {
	doc.WallMs = 0
	if doc.Error != nil {
		doc.Error.WallMs = 0
	}
	for i := range doc.AttemptErrors {
		doc.AttemptErrors[i].WallMs = 0
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	format, err := parseStream(r.URL.Query().Get("stream"))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	p, err := resolveSweep(&req, s.cfg.Pool)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	t0 := time.Now()
	requestID := RequestIDFrom(r.Context())
	reqCtx, cancel, release, ok := s.admit(w, r, p.deadline, p.jobs)
	if !ok {
		return
	}
	defer cancel()
	defer release()
	streamTimeout := s.cfg.StreamWriteTimeout
	if streamTimeout < 0 {
		streamTimeout = 0
	}
	st := newStreamer(w, format, streamTimeout, func() {
		// The reader stalled past the per-write deadline: count it, drop
		// the connection's work by canceling the request, and let the
		// broken streamer swallow the remaining frames.
		s.m.rejectedSlowClient.Inc()
		s.cfg.Logf("sweep %s: stream reader stalled past %v; canceling request", short(p.fingerprint), streamTimeout)
		cancel()
	})

	// Fast path: the fingerprint's document is already stored, verified.
	if body, ok := s.store.Get(p.fingerprint); ok {
		s.serveDoc(w, st, body, "hit", time.Since(t0))
		return
	}
	// One executor per fingerprint: a concurrent identical request waits
	// here, then usually leaves through the store re-check — the
	// singleflight coalesce the counter below records.
	unlock := s.lockKey(p.fingerprint)
	defer unlock()
	if body, ok := s.store.Get(p.fingerprint); ok {
		s.m.coalesced.Inc()
		s.serveDoc(w, st, body, "hit", time.Since(t0))
		return
	}

	// Dispatch stops on drain or request end; in-flight runs abort on
	// the hard stage or request end. Between the two, a drained request
	// finishes (and stores) what it started.
	dispatchCtx, stopDispatch := mergeCtx(reqCtx, s.cfg.Drain)
	defer stopDispatch()
	runCtx, stopRun := mergeCtx(reqCtx, s.cfg.Hard)
	defer stopRun()

	opts := p.opts
	opts.Store = s.records()
	opts.Ctx, opts.RunCtx = dispatchCtx, runCtx
	// The correlation ID rides along into the harness's trace spans; it is
	// not part of any key (two requests for the same experiment share one
	// document and one set of runs regardless of who asked).
	opts.RequestID = requestID
	opts.OnStored = func(n int) {
		if n > 0 {
			s.m.sweepsResumed.Inc()
			s.m.resumedRuns.Add(uint64(n))
			s.cfg.Logf("sweep %s: %d runs already stored", short(p.fingerprint), n)
		}
		// Headers must beat the first progress frame out the door.
		w.Header().Set(HeaderResumed, strconv.Itoa(n))
	}
	if st != nil {
		tracker := sweep.NewEventTracker(st.progress)
		tracker.SetRequestID(requestID)
		opts.Progress = tracker
		w.Header().Set(HeaderCache, "miss")
	}

	res, _ := s.runSweep(p.size, opts)
	if err := opts.Store.Err(); err != nil {
		// A record Put failed mid-sweep (the sticky error already stopped
		// the rest of the sweep's Puts); completed runs stayed in memory
		// and the response is unaffected.
		s.persist.degrade(opRecordPut, err)
	}

	if interruption(res) {
		done := len(res.Runs)
		total := done + len(res.Skipped)
		switch {
		case s.draining():
			s.retryAfter(w)
			s.fail(w, st, http.StatusServiceUnavailable, "draining",
				fmt.Sprintf("server draining: %d of %d runs completed and stored; resubmit to resume", done, total))
		case reqCtx.Err() == context.DeadlineExceeded:
			s.fail(w, st, http.StatusGatewayTimeout, "deadline",
				fmt.Sprintf("request deadline expired: %d of %d runs completed and stored; resubmit to resume", done, total))
		default:
			// Client disconnect (or hard abort): the store keeps what
			// finished; nothing useful to write to a vanished client.
			s.fail(w, st, http.StatusServiceUnavailable, "canceled",
				fmt.Sprintf("request canceled: %d of %d runs completed and stored", done, total))
		}
		return
	}

	doc := res.JSON()
	scrubSweepDoc(&doc)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		s.fail(w, st, http.StatusInternalServerError, "internal", "marshal sweep doc: "+err.Error())
		return
	}
	body := append(data, '\n')
	s.storeDoc(p.fingerprint, body)
	s.serveDoc(w, st, body, "miss", time.Since(t0))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	p, err := resolveRun(&req)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	t0 := time.Now()
	reqCtx, cancel, release, ok := s.admit(w, r, p.deadline, 1)
	if !ok {
		return
	}
	defer cancel()
	defer release()

	if body, ok := s.store.Get(p.fingerprint); ok {
		s.serveDoc(w, nil, body, "hit", time.Since(t0))
		return
	}

	// The run itself may already be stored — by a sweep that included it,
	// or by a request that differed only in scheduling knobs. One spec
	// runs inline on this goroutine, so a panic reaches the recovery
	// middleware.
	runCtx, stopRun := mergeCtx(reqCtx, s.cfg.Hard)
	defer stopRun()
	spec := p.spec
	spec.Ctx = runCtx
	spec.RequestID = RequestIDFrom(r.Context())
	recs := s.records()
	out := experiments.RunSpecs([]harness.Spec{spec}, experiments.Runner{
		Store:    recs,
		OnStored: func(n int) { s.m.resumedRuns.Add(uint64(n)) },
		Exec:     s.runOne,
	})[0]
	if err := recs.Err(); err != nil {
		s.persist.degrade(opRecordPut, err)
	}

	doc := out.JSON()
	scrubOutcome(&doc)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, "internal", "marshal outcome: "+err.Error())
		return
	}
	body := append(data, '\n')
	// A canceled outcome is an artifact of this request's shutdown
	// (deadline, drain's hard stage, client disconnect), not a result:
	// serve it structured, but never memoize it — the same rule the run
	// records follow.
	if out.Err == nil || out.Err.Kind != harness.KindCanceled {
		s.storeDoc(p.fingerprint, body)
	}
	s.serveDoc(w, nil, body, "miss", time.Since(t0))
}

// short abbreviates a fingerprint for log lines.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
