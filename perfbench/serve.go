package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/fsx"
	"repro/internal/metrics"
	"repro/internal/server"
)

// serveReplay runs hetsimd in-process on a fresh state dir each pass and
// replays the seed's request stream from one closed-loop client over
// loopback. hetsimd's callers wait for each reply, so one client is the
// honest load; with two, a pass's wall time became the slower client's.
type serveReplay struct {
	jobs     int
	stateDir string // parent of the per-pass state dirs
	keys     []key
	stream   []int
	bodies   map[int][]byte // first pass's body per key, for later passes

	// Per pass, made by setup.
	reg     *metrics.Registry
	fs      *countFS
	handler *timingHandler
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string
	dir     string
	cancel  context.CancelFunc
}

// streamLen is the requests per pass. With 16 keys it gives 16 misses and
// 144 hits per pass, a 90% hit share. That share is an assumption with no
// measured traffic behind it; it follows from sizing the stream for the
// percentiles: seven passes give the 100 misses a miss p90 needs and the
// 1000 hits a hit p99 needs.
const streamLen = 160

// warmupRun is a /v1/run outside the stream (the event budget changes its
// fingerprint but not its result), served during set-up.
var warmupRun = []byte(`{"benchmark":"rodinia/nw","mode":"copy","size":"small","max_events":1000000000}`)

func newServeReplay(seed int64, jobs int, stateDir string) (*serveReplay, error) {
	modes := func(name string) []string {
		b, _ := bench.Get(name)
		var out []string
		for _, m := range b.Info().Modes() {
			out = append(out, m.String())
		}
		return out
	}
	for _, name := range serveBenchmarks {
		if _, ok := bench.Get(name); !ok {
			return nil, fmt.Errorf("%s is not registered", name)
		}
	}
	keys := streamKeys(modes, jobs)
	return &serveReplay{jobs: jobs, stateDir: stateDir, keys: keys,
		stream: genStream(seed, classes(keys), streamLen), bodies: map[int][]byte{}}, nil
}

func (w *serveReplay) name() string { return "serve-replay" }

// minPasses is enough passes for 100 misses (a miss p90) and 1000 hits (a
// hit p99).
func (w *serveReplay) minPasses() int {
	k := len(w.keys)
	return max(ceilDiv(100, k), ceilDiv(1000, len(w.stream)-k))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// setup starts a fresh daemon on a fresh state dir: the state dir,
// server.New, the listener and the client.
func (w *serveReplay) setup(traced bool) error {
	dir, err := os.MkdirTemp(w.stateDir, "state-")
	if err != nil {
		return err
	}
	w.dir = dir
	drain, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.reg = metrics.NewRegistry()
	cfg := server.Config{StateDir: dir, Pool: w.jobs, Queue: w.jobs, Metrics: w.reg, Drain: drain, GCInterval: -1}
	w.fs, w.handler = nil, nil
	if traced {
		w.fs = &countFS{FS: fsx.OS}
		cfg.FS = w.fs
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if traced {
		w.handler = &timingHandler{next: h, byID: map[string]handled{}}
		h = w.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: h}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return nil
}

// warm serves one request outside the stream through the fresh daemon.
func (w *serveReplay) warm() error {
	_, _, err := w.post(context.Background(), "/v1/run", warmupRun, "warmup")
	return err
}

func (w *serveReplay) teardown() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.hs.Shutdown(ctx)
		cancel()
		<-w.served
		w.hs = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.cancel != nil {
		w.cancel()
	}
	os.RemoveAll(w.dir)
}

// post sends one request and returns the body and the cache header.
func (w *serveReplay) post(ctx context.Context, path string, body []byte, id string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set(server.HeaderRequestID, id)
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s: status %d: %s", path, body, resp.StatusCode, out)
	}
	return out, resp.Header.Get(server.HeaderCache), nil
}

func (w *serveReplay) pass(ctx context.Context, p *passOut) error {
	before := metrics.Default.Snapshot()
	regBefore := w.reg.Snapshot()
	if w.fs != nil {
		w.fs.reset()
	}
	seen := make([]bool, len(w.keys))
	client := make(map[string]float64, len(w.stream))
	t0 := time.Now()
	for i, k := range w.stream {
		id := strconv.Itoa(i)
		t := time.Now()
		body, cache, err := w.post(ctx, w.keys[k].path, w.keys[k].body, id)
		ms := msOf(time.Since(t))
		p.ops++
		if err != nil {
			p.failed++
			return err
		}
		client[id] = ms
		p.counts["server.response_bytes"] += uint64(len(body))
		want := "hit"
		if !seen[k] {
			want = "miss"
		}
		if cache != want {
			return fmt.Errorf("request %d (%s %s): cache %q, want %q: a key's first request misses and every repeat hits", i, w.keys[k].path, w.keys[k].body, cache, want)
		}
		p.lat[cache+"_ms"] = append(p.lat[cache+"_ms"], ms)
		if w.keys[k].path == "/v1/sweep" {
			p.counts["server.sweep_requests"]++
		}
		if first, ok := w.bodies[k]; !ok {
			w.bodies[k] = body
		} else if !bytes.Equal(first, body) {
			return fmt.Errorf("request %d (%s %s, %s): body differs from the first response for the key", i, w.keys[k].path, w.keys[k].body, cache)
		}
		seen[k] = true
	}
	p.layer["server.req_per_s"] += float64(len(w.stream)) / time.Since(t0).Seconds()

	after := metrics.Default.Snapshot()
	regAfter := w.reg.Snapshot()
	p.counts["server.cache_hits"] += uint64(delta(regBefore, regAfter, "hetsimd_cache_hits_total"))
	p.counts["server.cache_misses"] += uint64(delta(regBefore, regAfter, "hetsimd_cache_misses_total"))
	p.counts["server.sim_runs"] += uint64(delta(before, after, "sim_runs_started_total"))
	p.counts["sim.events"] += uint64(delta(before, after, "sim_run_events_total"))
	p.layer["sim.windows"] += delta(before, after, "sim_engine_windows_total")
	p.layer["sim.serial_fallbacks"] += delta(before, after, "sim_engine_serial_fallback_total")
	if w.fs != nil {
		p.counts["fsx.syncs"] += uint64(w.fs.syncs.Load())
		p.counts["fsx.writes"] += uint64(w.fs.writes.Load())
		p.counts["fsx.ops"] += uint64(w.fs.ops.Load())
		// Not exact: journal records carry each run's wall time in
		// nanoseconds, so their length varies by a digit now and then.
		p.layer["fsx.bytes_written"] += float64(w.fs.written.Load())
		p.layer["fsx.busy_ms"] += msOf(time.Duration(w.fs.busy.Load()))
	}
	if w.handler != nil {
		for id, h := range w.handler.take() {
			c, ok := client[id]
			if !ok {
				continue // the warm-up request
			}
			p.lat["handler_"+h.cache+"_ms"] = append(p.lat["handler_"+h.cache+"_ms"], msOf(h.dur))
			p.lat["transport_ms"] = append(p.lat["transport_ms"], c-msOf(h.dur))
		}
	}
	return nil
}

// handled is one request as the handler saw it.
type handled struct {
	dur   time.Duration
	cache string
}

// timingHandler times each request inside the daemon's handler, keyed by
// request ID, and labels the handler's CPU profile samples with the route.
type timingHandler struct {
	next http.Handler
	mu   sync.Mutex
	byID map[string]handled
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	withLabels(r.Context(), "serve-replay", r.URL.Path, func(ctx context.Context) {
		h.next.ServeHTTP(w, r.WithContext(ctx))
	})
	d := time.Since(t0)
	h.mu.Lock()
	h.byID[r.Header.Get(server.HeaderRequestID)] = handled{dur: d, cache: w.Header().Get(server.HeaderCache)}
	h.mu.Unlock()
}

func (h *timingHandler) take() map[string]handled {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.byID
	h.byID = map[string]handled{}
	return out
}

// countFS counts and times every persistence operation the daemon makes.
type countFS struct {
	fsx.FS
	ops, syncs, writes, written, busy atomic.Int64
}

func (c *countFS) reset() {
	c.ops.Store(0)
	c.syncs.Store(0)
	c.writes.Store(0)
	c.written.Store(0)
	c.busy.Store(0)
}

// op records one operation that started at t0.
func (c *countFS) op(t0 time.Time) {
	c.ops.Add(1)
	c.busy.Add(int64(time.Since(t0)))
}

func (c *countFS) OpenFile(path string, flag int, perm fs.FileMode) (fsx.File, error) {
	defer c.op(time.Now())
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	defer c.op(time.Now())
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) ReadFile(path string) ([]byte, error) {
	defer c.op(time.Now())
	return c.FS.ReadFile(path)
}

func (c *countFS) Rename(oldpath, newpath string) error {
	defer c.op(time.Now())
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) Remove(path string) error {
	defer c.op(time.Now())
	return c.FS.Remove(path)
}

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error {
	defer c.op(time.Now())
	return c.FS.MkdirAll(path, perm)
}

func (c *countFS) ReadDir(path string) ([]fs.DirEntry, error) {
	defer c.op(time.Now())
	return c.FS.ReadDir(path)
}

func (c *countFS) Stat(path string) (fs.FileInfo, error) {
	defer c.op(time.Now())
	return c.FS.Stat(path)
}

func (c *countFS) SyncDir(dir string) error {
	defer c.op(time.Now())
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

func (c *countFS) Chtimes(path string, atime, mtime time.Time) error {
	defer c.op(time.Now())
	return c.FS.Chtimes(path, atime, mtime)
}

type countFile struct {
	fsx.File
	c *countFS
}

func (f *countFile) Write(b []byte) (int, error) {
	defer f.c.op(time.Now())
	n, err := f.File.Write(b)
	f.c.writes.Add(1)
	f.c.written.Add(int64(n))
	return n, err
}

func (f *countFile) Read(b []byte) (int, error) {
	defer f.c.op(time.Now())
	return f.File.Read(b)
}

func (f *countFile) Seek(offset int64, whence int) (int64, error) {
	defer f.c.op(time.Now())
	return f.File.Seek(offset, whence)
}

func (f *countFile) Stat() (fs.FileInfo, error) {
	defer f.c.op(time.Now())
	return f.File.Stat()
}

func (f *countFile) Sync() error {
	defer f.c.op(time.Now())
	f.c.syncs.Add(1)
	return f.File.Sync()
}

func (f *countFile) Truncate(size int64) error {
	defer f.c.op(time.Now())
	return f.File.Truncate(size)
}

func (f *countFile) Close() error {
	defer f.c.op(time.Now())
	return f.File.Close()
}
