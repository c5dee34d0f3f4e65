package server

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// The persistence operations that can flip the daemon into degraded mode.
// Each is a label value of hetsimd_persist_degraded_total.
const (
	opRecordPut = "record_put" // storing a completed run's record
	opCachePut  = "cache_put"  // memoizing a completed response document
)

// persistGuard is the daemon's degraded-mode switch. The design rule it
// enforces: persistence failures are never request failures. A full disk,
// a dead volume, a read-only remount — the in-flight sweep finishes from
// memory, the response is served correct and byte-identical to a healthy
// run (the documents carry no persistence state), and only the
// X-Hetsimd-Persist header, /readyz detail, and metrics tell the operator
// the daemon is running without a safety net: no run records, no response
// memoization, so a crash loses in-flight progress and repeated requests
// recompute.
//
// While degraded, the daemon stops using run records and stops writing
// documents (one failure is a signal, a failure per request is log spam and
// wasted syscalls on a dead disk) and a single background probe
// periodically exercises the state dir — write, fsync, remove — with
// exponential backoff. The first successful probe re-enables persistence.
// Document reads continue throughout: serving a verified entry that is
// already on disk needs no writes.
type persistGuard struct {
	s *Server

	mu       sync.Mutex
	degraded bool
	lastOp   string // which operation failed last
	lastErr  error
	probing  bool // one probe goroutine at a time
}

// ok reports whether persistence is enabled (not degraded).
func (g *persistGuard) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.degraded
}

// status reports the X-Hetsimd-Persist header value.
func (g *persistGuard) status() string {
	if g.ok() {
		return "ok"
	}
	return "degraded"
}

// detail reports the failing operation and error while degraded.
func (g *persistGuard) detail() (op string, err error, degraded bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lastOp, g.lastErr, g.degraded
}

// counterFor maps an operation to its pre-resolved failure counter.
func (g *persistGuard) counterFor(op string) metrics.Counter {
	if op == opRecordPut {
		return g.s.m.degradedRecordPut
	}
	return g.s.m.degradedCachePut
}

// degrade records a persistence failure and enters (or stays in) degraded
// mode, starting the recovery probe if one is not already running.
func (g *persistGuard) degrade(op string, err error) {
	g.counterFor(op).Inc()
	g.mu.Lock()
	wasOK := !g.degraded
	g.degraded = true
	g.lastOp, g.lastErr = op, err
	startProbe := !g.probing
	if startProbe {
		g.probing = true
	}
	g.mu.Unlock()
	if wasOK {
		g.s.m.persistDegraded.Set(1)
		g.s.cfg.Logf("persistence degraded (%s failed): %v — serving from memory, probing for recovery", op, err)
	}
	if startProbe {
		go g.probeLoop()
	}
}

// probeLoop retries the state dir with exponential backoff until a probe
// succeeds, then re-enables persistence and exits. It also exits on the
// hard-shutdown context so a dying process does not keep poking a dead
// disk.
func (g *persistGuard) probeLoop() {
	delay := g.s.cfg.ProbeInterval
	for {
		select {
		case <-time.After(delay):
		case <-g.s.cfg.Hard.Done():
			g.mu.Lock()
			g.probing = false
			g.mu.Unlock()
			return
		}
		if err := g.probe(); err != nil {
			g.mu.Lock()
			g.lastErr = err
			g.mu.Unlock()
			if delay *= 2; delay > 30*time.Second {
				delay = 30 * time.Second
			}
			continue
		}
		g.mu.Lock()
		g.degraded = false
		g.probing = false
		g.lastOp, g.lastErr = "", nil
		g.mu.Unlock()
		g.s.m.persistDegraded.Set(0)
		g.s.m.persistRecovered.Inc()
		g.s.cfg.Logf("persistence recovered: state dir writable again, run records and documents re-enabled")
		return
	}
}

// probe exercises the full durable-write path the daemon depends on:
// create, write, fsync, close, atomic rename, remove, directory fsync —
// the same sequence a store Put performs, through the
// same filesystem seam, so any fault that would break real persistence
// also holds the daemon degraded.
func (g *persistGuard) probe() error {
	tmp := filepath.Join(g.s.cfg.StateDir, ".probe.tmp")
	dst := filepath.Join(g.s.cfg.StateDir, ".probe")
	f, err := g.s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("hetsimd persistence probe\n"))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = g.s.fs.Rename(tmp, dst)
	}
	if werr != nil {
		g.s.fs.Remove(tmp)
		return werr
	}
	if err := g.s.fs.Remove(dst); err != nil {
		return err
	}
	return store.SyncDir(g.s.fs, g.s.cfg.StateDir)
}
