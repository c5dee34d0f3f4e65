package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/store"
)

// tmpOrphanAge guards the periodic tmp sweep: a temp file this old with
// no registered in-flight writer is an orphan from a crashed Put, not a
// write in progress. The startup sweep needs no age guard — nothing can
// be in flight before the server exists.
const tmpOrphanAge = 30 * time.Second

// gcLoop runs the periodic state-dir garbage collection until ctx ends:
// when drain begins (a draining server's remaining work is finishing
// requests, not housekeeping) or Close stops it.
func (s *Server) gcLoop(ctx context.Context) {
	defer s.gc.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.runGC(false)
		case <-ctx.Done():
			return
		}
	}
}

// runGC is one garbage-collection pass over the store dir: remove
// orphaned temp files and quarantines old enough to have been inspected,
// re-measure usage and evict LRU entries down to the byte quota, then
// save the recency sidecar if any entry was touched since the last save.
// GC is strictly advisory — every failure is counted and logged, none
// flips degraded mode or fails a request.
func (s *Server) runGC(startup bool) {
	s.m.gcRuns.Inc()
	dir := s.store.Dir()
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		s.cfg.Logf("gc: scan %s: %v", dir, err)
		s.m.gcFailures.Inc()
		ents = nil
	}
	now := time.Now()
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.Contains(name, ".tmp-"):
			// A crashed Put's half-written temp file. At startup every one
			// is an orphan; while serving, skip registered in-flight writes
			// and anything too young to judge.
			if !startup {
				if s.store.TmpInFlight(name) {
					continue
				}
				info, err := e.Info()
				if err != nil || now.Sub(info.ModTime()) < tmpOrphanAge {
					continue
				}
			}
			s.gcRemove(path, s.m.gcRemovedTmp, "orphaned temp file")
		case strings.Contains(name, ".corrupt"):
			// Quarantines are evidence; keep them long enough for a
			// post-mortem, then reclaim the space.
			info, err := e.Info()
			if err != nil || now.Sub(info.ModTime()) < s.cfg.CorruptAge {
				continue
			}
			s.gcRemove(path, s.m.gcRemovedCorrupt, "aged quarantine")
		}
	}
	s.enforceQuota()
	s.store.SaveIndex()
}

// gcRemove removes one file, counting the outcome. A vanished file is
// success — someone else (a handler, a concurrent pass) got there first.
func (s *Server) gcRemove(path string, counter interface{ Inc() }, why string) {
	if err := s.fs.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return
		}
		s.cfg.Logf("gc: remove %s: %v", path, err)
		s.m.gcFailures.Inc()
		return
	}
	counter.Inc()
	s.cfg.Logf("gc: removed %s (%s)", path, why)
}

// stateUsage sums the store dir's file sizes (one level deep — the
// layout has no nesting).
func (s *Server) stateUsage() int64 {
	ents, err := s.fs.ReadDir(s.store.Dir())
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// enforceQuota publishes the store dir's size and, when a quota is set
// and exceeded, evicts least-recently-used entries — run records and
// documents alike — until the dir fits. An evicted key simply recomputes
// (and is stored again) on next request.
func (s *Server) enforceQuota() {
	total := s.stateUsage()
	s.m.stateBytes.Set(total)
	if s.cfg.StateQuota <= 0 || total <= s.cfg.StateQuota {
		return
	}
	evicted := 0
	for _, ent := range s.store.LRU() {
		if total <= s.cfg.StateQuota {
			break
		}
		if err := s.store.Remove(ent.Key); err != nil {
			s.cfg.Logf("gc: evict %s: %v", ent.Key, err)
			s.m.gcFailures.Inc()
			continue
		}
		s.m.evictedEntries.Inc()
		total -= ent.Size
		evicted++
		s.cfg.Logf("gc: evicted store entry %s (%d bytes, LRU) for quota", short(ent.Key), ent.Size)
	}
	if evicted > 0 {
		if err := store.SyncDir(s.fs, s.store.Dir()); err != nil {
			s.cfg.Logf("gc: %v", err)
		}
	}
	s.m.stateBytes.Set(s.stateUsage())
}
