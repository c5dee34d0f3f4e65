package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// fp64 fabricates a distinct fingerprint-shaped (64 hex chars) cache key.
func fp64(seed byte) string {
	return strings.Repeat(fmt.Sprintf("%02x", seed), 32)
}

// corruptFile flips one byte near the end of a file in place.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineUniqueSuffixCache: corrupting the same cache key twice
// must preserve both specimens — the second quarantine picks .corrupt.1
// instead of clobbering .corrupt.
func TestQuarantineUniqueSuffixCache(t *testing.T) {
	dir := t.TempDir()
	c, err := store.Open(nil, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	key := fp64(0xaa)
	path := filepath.Join(dir, key+".entry")
	first := []byte("first body\n")
	if err := c.Put(key, first); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, path)
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("first quarantine missing: %v", err)
	}

	if err := c.Put(key, []byte("second body\n")); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, path)
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path + ".corrupt.1"); err != nil {
		t.Fatalf("second quarantine did not get a unique suffix: %v", err)
	}
	// The first specimen survived the second quarantine.
	data, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("first")) {
		t.Fatalf("first quarantine was clobbered; contents: %q", data)
	}
}

// TestQuotaLRUOrderAcrossRestart: the eviction order is least recently
// *accessed* first, and survives a cache reopen through the index
// sidecar — no filesystem atimes involved.
func TestQuotaLRUOrderAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := store.Open(nil, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	a, b, z := fp64(0x0a), fp64(0x0b), fp64(0x0c)
	for _, k := range []string{a, b, z} {
		if err := c.Put(k, []byte("body of "+k+"\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(a); !ok { // a becomes most recent
		t.Fatal("get a")
	}
	c.SaveIndex()

	// Restart: a fresh store over the same dir must reconstruct the order.
	c2, err := store.Open(nil, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	order := c2.LRU()
	if len(order) != 3 {
		t.Fatalf("LRU has %d entries, want 3", len(order))
	}
	if order[0].Key != b || order[1].Key != z || order[2].Key != a {
		t.Fatalf("LRU order = [%s %s %s], want [b c a] = [%s %s %s]",
			short(order[0].Key), short(order[1].Key), short(order[2].Key), short(b), short(z), short(a))
	}
}

// TestQuotaEvictionLRU: enforceQuota evicts oldest-accessed entries until
// the state dir fits the byte budget, counts them, and leaves recently
// used entries alone.
func TestQuotaEvictionLRU(t *testing.T) {
	reg := metrics.NewRegistry()
	body := bytes.Repeat([]byte("x"), 1000)
	var quota int64 = 2400 // fits two ~1030-byte entries (plus the index sidecar), not three
	s, _ := newTestServer(t, func(c *Config) {
		c.Metrics = reg
		c.StateQuota = quota
		c.GCInterval = -1
	})
	k1, k2, k3 := fp64(0x01), fp64(0x02), fp64(0x03)
	for _, k := range []string{k1, k2, k3} {
		if err := s.store.Put(k, body); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.store.Get(k1); !ok { // k1 most recent; k2 is now LRU
		t.Fatal("get k1")
	}

	s.enforceQuota()

	if s.stateUsage() > quota {
		t.Fatalf("state dir is %d bytes after GC, quota is %d", s.stateUsage(), quota)
	}
	stored := func(k string) bool {
		_, err := os.Stat(filepath.Join(s.store.Dir(), k+".entry"))
		return err == nil
	}
	if stored(k2) {
		t.Fatal("LRU entry k2 survived eviction")
	}
	if !stored(k1) || !stored(k3) {
		t.Fatal("eviction removed more than the LRU entry")
	}
	snap := reg.Snapshot()
	if got := snap[`hetsimd_evicted_total{kind="entry"}`]; got != 1 {
		t.Fatalf("evicted_total = %v, want 1", got)
	}
	if got := snap["hetsimd_state_bytes"]; got <= 0 || int64(got) > quota {
		t.Fatalf("state_bytes gauge = %v, want in (0, %d]", got, quota)
	}

	// The evicted fingerprint simply recomputes: a fresh Put works and a
	// Get verifies it.
	if err := s.store.Put(k2, body); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.store.Get(k2); !ok || !bytes.Equal(got, body) {
		t.Fatal("evicted fingerprint did not recompute cleanly")
	}
}

// TestGCStartupTmpOrphan: a temp file left by a crashed Put is removed by
// the startup sweep and counted under kind="tmp".
func TestGCStartupTmpOrphan(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(cacheDir, fp64(0x11)+".tmp-4242")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.Metrics = reg
		c.GCInterval = -1
	})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived startup GC (stat err=%v)", err)
	}
	if got := reg.Snapshot()[`hetsimd_gc_removed_total{kind="tmp"}`]; got != 1 {
		t.Fatalf(`gc_removed_total{kind="tmp"} = %v, want 1`, got)
	}
}

// TestGCAgedCorrupt: quarantined files older than CorruptAge are
// reclaimed; younger ones are kept for post-mortem.
func TestGCAgedCorrupt(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(cacheDir, fp64(0x21)+".entry.corrupt")
	fresh := filepath.Join(cacheDir, fp64(0x22)+".entry.corrupt")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("damaged"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.Metrics = reg
		c.GCInterval = -1 // CorruptAge defaults to 24h
	})
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("48h-old quarantine survived GC (stat err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh quarantine was reclaimed early: %v", err)
	}
	if got := reg.Snapshot()[`hetsimd_gc_removed_total{kind="corrupt"}`]; got != 1 {
		t.Fatalf(`gc_removed_total{kind="corrupt"} = %v, want 1`, got)
	}
}
