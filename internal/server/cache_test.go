package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// The store's document-entry behavior as the daemon relies on it: round
// trips, empty bodies, quarantine of every flavor of damage.

func testCache(t *testing.T) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := store.Open(nil, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return c, dir
}

func TestCacheRoundTrip(t *testing.T) {
	c, _ := testCache(t)
	body := []byte("{\n  \"hello\": \"world\"\n}\n")
	if _, ok := c.Get("k1"); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put("k1", body); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get returned %q, want %q", got, body)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Overwrite is allowed and serves the new bytes.
	body2 := []byte("v2\n")
	if err := c.Put("k1", body2); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("k1"); !bytes.Equal(got, body2) {
		t.Fatalf("after overwrite Get = %q, want %q", got, body2)
	}
}

func TestCacheEmptyBody(t *testing.T) {
	c, _ := testCache(t)
	if err := c.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("empty")
	if !ok || len(got) != 0 {
		t.Fatalf("empty entry: got %q, ok=%v", got, ok)
	}
}

// TestCacheCorruptQuarantine: every flavor of damage must read as a miss,
// move the bad entry aside as evidence, and let a fresh Put heal the key.
func TestCacheCorruptQuarantine(t *testing.T) {
	body := []byte("payload bytes that matter\n")
	corruptions := map[string]func(entry []byte) []byte{
		"flipped body bit": func(e []byte) []byte {
			e[len(e)-2] ^= 0x40
			return e
		},
		"truncated body": func(e []byte) []byte { return e[:len(e)-4] },
		"bad magic":      func(e []byte) []byte { return append([]byte("notsimd-cache 1 00000000 3\nabc"), nil...) },
		"no header":      func(e []byte) []byte { return []byte(strings.Repeat("x", 200)) },
		"garbage length": func(e []byte) []byte {
			return []byte("hetsimd-cache 1 00000000 banana\n")
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			c, dir := testCache(t)
			if err := c.Put("key", body); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "key.entry")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get("key"); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("corrupt entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still present under its serving name (err=%v)", err)
			}
			// The key heals on the next Put.
			if err := c.Put("key", body); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get("key"); !ok || !bytes.Equal(got, body) {
				t.Fatalf("healed entry: got %q, ok=%v", got, ok)
			}
		})
	}
}

// TestCacheLenIgnoresQuarantine: quarantined and temp files don't count
// as entries.
func TestCacheLenIgnoresQuarantine(t *testing.T) {
	c, dir := testCache(t)
	if err := c.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Corrupt one and trip the quarantine.
	path := filepath.Join(dir, "a.entry")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Get("a")
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d after quarantine, want 1", n)
	}
}
