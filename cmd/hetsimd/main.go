// Command hetsimd serves the simulator as a daemon: POST /v1/sweep and
// POST /v1/run accept JSON experiment requests, execute them on a bounded
// simulation pool, and return the same SweepDoc/OutcomeJSON documents the
// CLI commands export. One warm process amortizes engine setup across
// many requests and keeps every completed run and response in one
// verified on-disk run store under -state: an interrupted sweep resumes
// on resubmission, across restarts, and any request reuses the runs
// earlier runs and sweeps already simulated.
//
// GET /metrics exposes operational counters, gauges, and latency
// histograms in Prometheus text format; every request is logged as one
// structured line (-log-format text|json, -log-level) carrying the
// request's correlation ID (the X-Request-Id header, echoed if the
// client sent one, generated otherwise), which also appears in sweep
// progress events and harness trace spans.
//
// Shutdown mirrors the CLI sweeps' two-stage signal discipline: the first
// SIGINT/SIGTERM stops admitting requests and stops dispatching new runs
// inside in-flight sweeps (what completed is stored and clients are
// told to resubmit); a second signal aborts in-flight runs too; a third
// restores default handling (kills the process). A clean drain exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

func main() {
	os.Exit(run())
}

// parseBytes parses a human-friendly byte size: a plain integer, or one
// with a K/M/G/T suffix (binary multiples, case-insensitive, optional
// trailing B or iB). Empty means no limit (0).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	upper = strings.TrimSuffix(upper, "IB")
	upper = strings.TrimSuffix(upper, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(upper, "K"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "K")
	case strings.HasSuffix(upper, "M"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "M")
	case strings.HasSuffix(upper, "G"):
		mult, upper = 1<<30, strings.TrimSuffix(upper, "G")
	case strings.HasSuffix(upper, "T"):
		mult, upper = 1<<40, strings.TrimSuffix(upper, "T")
	}
	n, err := strconv.ParseInt(upper, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 1048576, 512M, 2G)", s)
	}
	return n * mult, nil
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		state        = flag.String("state", "", "state directory for the run store (required)")
		stateQuota   = flag.String("state-quota", "", "byte budget for the run store, e.g. 512M or 2G (LRU entries evicted when over; empty = unlimited)")
		gcInterval   = flag.Duration("gc-interval", time.Minute, "period of the state-dir GC (orphaned temps, aged quarantines, quota, recency sidecar); <0 disables")
		corruptAge   = flag.Duration("gc-corrupt-age", 24*time.Hour, "how long quarantined *.corrupt files are kept before GC reclaims them")
		streamWrite  = flag.Duration("stream-write-timeout", time.Minute, "per-write deadline on streamed (?stream=) responses; a reader stalled longer is dropped; <0 disables")
		pool         = flag.Int("pool", 0, "max concurrently executing simulations across all requests (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 16, "max requests waiting for pool slots before 429s")
		retryAfter   = flag.Duration("retry-after", 2*time.Second, "Retry-After hint on 429/503 responses")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "max time to wait for in-flight requests after the first signal")
		quiet        = flag.Bool("q", false, "suppress operational logging")
		logLevel     = flag.String("log-level", "info", "structured access-log level: debug, info, warn, or error")
		logFormat    = flag.String("log-format", "text", "structured access-log format: text or json")
	)
	flag.Parse()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "hetsimd: -state is required")
		flag.Usage()
		return 2
	}
	quota, err := parseBytes(*stateQuota)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetsimd: -state-quota: %v\n", err)
		return 2
	}

	var level slog.Level
	switch *logLevel {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "hetsimd: -log-level: unknown level %q\n", *logLevel)
		return 2
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, hopts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	default:
		fmt.Fprintf(os.Stderr, "hetsimd: -log-format: unknown format %q\n", *logFormat)
		return 2
	}
	accessLog := slog.New(handler)

	logw := io.Writer(os.Stderr)
	if *quiet {
		logw = io.Discard
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(logw, "hetsimd: "+format+"\n", args...)
	}

	drainCtx, hardCtx, stopSignals := sweep.SignalContexts(context.Background(), logw)
	defer stopSignals()

	srv, err := server.New(server.Config{
		StateDir:           *state,
		StateQuota:         quota,
		GCInterval:         *gcInterval,
		CorruptAge:         *corruptAge,
		StreamWriteTimeout: *streamWrite,
		Pool:               *pool,
		Queue:              *queue,
		RetryAfter:         *retryAfter,
		Drain:              drainCtx,
		Hard:               hardCtx,
		Logf:               logf,
		Log:                accessLog,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetsimd: %v\n", err)
		return 1
	}
	// Deferred: runs on every return path, after httpSrv.Shutdown.
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetsimd: %v\n", err)
		return 1
	}
	// Always announced (even with -q): tests and scripts parse this line
	// to learn the bound port when -addr ends in :0.
	fmt.Fprintf(os.Stderr, "hetsimd listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "hetsimd: serve: %v\n", err)
		return 1
	case <-drainCtx.Done():
	}

	// First signal received: Server already rejects new work and stops
	// dispatching runs inside in-flight sweeps; Shutdown waits for those
	// handlers to store their runs and respond. The drain timeout bounds a
	// pathological straggler (the second signal aborts runs sooner).
	logf("draining: waiting up to %s for in-flight requests", *drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logf("drain incomplete: %v", err)
		httpSrv.Close()
		return 1
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "hetsimd: serve: %v\n", err)
		return 1
	}
	logf("drained cleanly")
	return 0
}
