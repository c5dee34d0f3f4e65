// Package store is the one content-addressed store of simulation results
// behind every command that persists them. It holds two kinds of entry,
// each under a key that hashes what determines it:
//
//   - a run record: one completed run's harness.Outcome JSON under its
//     run key (RunKey). Every sweep slot, single run and hetsim
//     invocation first looks its key up, so a completed run is its own
//     checkpoint — an interrupted sweep resumes by lookup — and any later
//     request that needs the same run reuses it.
//   - a response document: hetsimd's served bytes under a document key
//     (DocKey) hashed from its runs' keys, so a repeated request is a
//     disk read.
//
// Entries are written atomically (temp file, fsync, rename, directory
// fsync) and verified on every read by a CRC32-Castagnoli checksum over
// the body. A corrupt entry — bit rot, a torn write that survived, an
// operator's stray edit — is quarantined: renamed aside with a unique
// ".corrupt" suffix and logged, and the caller recomputes. The store never
// refuses service over a bad entry.
//
// The entry format is a one-line header followed by the raw body bytes:
//
//	hetsimd-cache 1 <crc32c %08x> <body length>\n<body>
//
// Serving the exact stored bytes (not a re-marshal) is what makes a hit
// byte-identical to the miss that populated it.
//
// The store also keeps an in-memory recency index — entry sizes plus a
// logical access clock bumped on every hit — so a garbage collector can
// evict least-recently-used entries under a byte quota without trusting
// filesystem atimes (noatime mounts are the production norm). The index
// persists across restarts through a best-effort sidecar file (index.lru):
// losing it costs only eviction ordering, never correctness, so it is
// written without fsync and rebuilt from the directory listing when
// absent.
package store

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
)

// Store is one store directory. Safe for concurrent use.
type Store struct {
	dir  string
	fs   fsx.FS
	logf func(format string, args ...any)

	mu      sync.Mutex // guards index, tmps, quarantine renames
	seq     uint64     // logical access clock
	saved   uint64     // seq at the last SaveIndex
	entries map[string]*entryMeta
	tmps    map[string]bool // in-flight temp basenames (GC must not reap)

	// OnQuarantine, when set, observes each corrupt-entry quarantine (the
	// server wires a metrics counter here). Set it before first use.
	OnQuarantine func()
}

// entryMeta is one entry's recency-index row.
type entryMeta struct {
	size int64  // file size (header + body)
	last uint64 // access clock at last Get/Put (0 = not seen since load)
}

// magic stamps entry headers; a version bump invalidates old entries
// (they quarantine and recompute — the safe failure mode).
const magic = "hetsimd-cache 1"

// indexFile is the recency sidecar's name inside the store dir.
const indexFile = "index.lru"

// castagnoli is the CRC polynomial table; Castagnoli over IEEE for its
// better error-detection spread (and hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Open opens (creating if needed) the store rooted at dir over fsys (nil
// means the real OS filesystem). logf receives quarantine and
// write-failure diagnostics (nil discards them).
func Open(fsys fsx.FS, dir string, logf func(format string, args ...any)) (*Store, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{dir: dir, fs: fsys, logf: logf,
		entries: map[string]*entryMeta{}, tmps: map[string]bool{}}
	s.loadIndex()
	return s, nil
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// loadIndex rebuilds the recency index: entry names and sizes from the
// directory listing (the ground truth), access order from the sidecar
// when one survives. Entries missing from the sidecar sort oldest.
func (s *Store) loadIndex() {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		s.logf("store: index scan: %v", err)
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".entry") || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.entries[strings.TrimSuffix(name, ".entry")] = &entryMeta{size: info.Size()}
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, indexFile))
	if err != nil {
		return // no sidecar: everything ties at last=0
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		var last uint64
		var key string
		if _, err := fmt.Sscanf(sc.Text(), "%d %s", &last, &key); err != nil {
			continue
		}
		if m, ok := s.entries[key]; ok {
			m.last = last
			if last > s.seq {
				s.seq = last
			}
		}
	}
	s.saved = s.seq
}

// SaveIndex persists the recency sidecar (temp + rename, no fsync: the
// index is an eviction-ordering hint, not durable state) when the access
// clock advanced since the last save. Best effort — failures are logged
// and swallowed.
func (s *Store) SaveIndex() {
	s.mu.Lock()
	if s.seq == s.saved {
		s.mu.Unlock()
		return
	}
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d %s\n", s.entries[k].last, k)
	}
	seq := s.seq
	s.mu.Unlock()

	tmp, err := s.fs.CreateTemp(s.dir, indexFile+".tmp-*")
	if err != nil {
		s.logf("store: save index: %v", err)
		return
	}
	s.trackTmp(filepath.Base(tmp.Name()), true)
	defer s.trackTmp(filepath.Base(tmp.Name()), false)
	_, werr := tmp.Write([]byte(b.String()))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		s.fs.Remove(tmp.Name())
		s.logf("store: save index: write=%v close=%v", werr, cerr)
		return
	}
	if err := s.fs.Rename(tmp.Name(), filepath.Join(s.dir, indexFile)); err != nil {
		s.fs.Remove(tmp.Name())
		s.logf("store: save index: %v", err)
		return
	}
	s.mu.Lock()
	s.saved = max(s.saved, seq)
	s.mu.Unlock()
}

// trackTmp marks (or unmarks) an in-flight temp basename so the GC's
// orphan sweep never reaps a temp file mid-write.
func (s *Store) trackTmp(base string, inFlight bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inFlight {
		s.tmps[base] = true
	} else {
		delete(s.tmps, base)
	}
}

// TmpInFlight reports whether base is a temp file some Put is writing
// right now (the GC's guard).
func (s *Store) TmpInFlight(base string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tmps[base]
}

// path maps a key (a hex fingerprint or run key — already
// filesystem-safe) to its entry file.
func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".entry") }

// touch bumps key's recency clock (and creates its row after a Put).
func (s *Store) touch(key string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.entries[key]
	if !ok {
		m = &entryMeta{}
		s.entries[key] = m
	}
	m.size = size
	s.seq++
	m.last = s.seq
}

// Get returns the verified body for key, or (nil, false) on a miss. A
// present-but-corrupt entry is quarantined (renamed to a unique
// <key>.entry.corrupt[.N] name, never clobbering an earlier quarantine)
// and reported as a miss, so the caller recomputes and overwrites it with
// a good entry.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.path(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logf("store: read %s: %v", path, err)
		}
		return nil, false
	}
	body, err := parseEntry(data)
	if err != nil {
		s.quarantine(key, err)
		return nil, false
	}
	s.touch(key, int64(len(data)))
	return body, true
}

// parseEntry validates one entry file and returns its body.
func parseEntry(data []byte) ([]byte, error) {
	nl := strings.IndexByte(string(data[:min(len(data), 64)]), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 4 || fields[0]+" "+fields[1] != magic {
		return nil, fmt.Errorf("bad header %q", string(data[:nl]))
	}
	wantCRC, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum field: %v", err)
	}
	wantLen, err := strconv.Atoi(fields[3])
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("bad length field %q", fields[3])
	}
	body := data[nl+1:]
	if len(body) != wantLen {
		return nil, fmt.Errorf("body is %d bytes, header says %d", len(body), wantLen)
	}
	if got := crc32.Checksum(body, castagnoli); got != uint32(wantCRC) {
		return nil, fmt.Errorf("checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	return body, nil
}

// quarantinePath picks the first unused <path>.corrupt[.N] name, so
// quarantining a second damaged entry under the same key preserves the
// first instead of silently clobbering the evidence.
func quarantinePath(fsys fsx.FS, path string) string {
	base := path + ".corrupt"
	q := base
	for i := 1; i < 10000; i++ {
		if _, err := fsys.Stat(q); err != nil {
			return q
		}
		q = fmt.Sprintf("%s.%d", base, i)
	}
	return q
}

// quarantine renames a damaged entry aside and logs it. Renaming (rather
// than deleting) preserves the evidence for post-mortem; renaming (rather
// than refusing) lets the caller recompute and move on. The destination
// name is unique, so repeated corruption of one key keeps every specimen.
func (s *Store) quarantine(key string, cause error) {
	path := s.path(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.OnQuarantine != nil {
		s.OnQuarantine()
	}
	delete(s.entries, key)
	q := quarantinePath(s.fs, path)
	if err := s.fs.Rename(path, q); err != nil {
		s.logf("store: quarantine %s: %v (entry was corrupt: %v)", path, err, cause)
		return
	}
	now := time.Now()
	s.fs.Chtimes(q, now, now) // GC ages quarantines from quarantine time
	// Make the rename durable so a crash cannot resurrect the corrupt
	// entry under its serving name.
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.logf("store: quarantine %s: %v", path, err)
	}
	s.logf("store: quarantined corrupt entry %s -> %s: %v", path, q, cause)
}

// Put durably stores body under key: temp file in the same directory,
// contents fsync'd, atomic rename over any existing entry, directory
// fsync. Readers racing a Put see either the old complete entry or the
// new one, never a torn hybrid.
func (s *Store) Put(key string, body []byte) error {
	header := fmt.Sprintf("%s %08x %d\n", magic, crc32.Checksum(body, castagnoli), len(body))
	tmp, err := s.fs.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.trackTmp(filepath.Base(tmp.Name()), true)
	defer s.trackTmp(filepath.Base(tmp.Name()), false)
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write([]byte(header))
	if err == nil {
		_, err = tmp.Write(body)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := SyncDir(s.fs, s.dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.touch(key, int64(len(header)+len(body)))
	return nil
}

// Remove evicts key's entry from disk and the index. A missing file is
// not an error (a concurrent quarantine or a crash already took it).
func (s *Store) Remove(key string) error {
	s.mu.Lock()
	delete(s.entries, key)
	s.mu.Unlock()
	if err := s.fs.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Len counts stored (non-quarantined) entries, for the health endpoint.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// LRUEntry is one row of the eviction ordering.
type LRUEntry struct {
	Key  string
	Size int64
	Last uint64
}

// LRU returns the entries oldest-access-first (ties broken by key so the
// order — and therefore eviction — is deterministic).
func (s *Store) LRU() []LRUEntry {
	s.mu.Lock()
	out := make([]LRUEntry, 0, len(s.entries))
	for k, m := range s.entries {
		out = append(out, LRUEntry{Key: k, Size: m.size, Last: m.last})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Last != out[j].Last {
			return out[i].Last < out[j].Last
		}
		return out[i].Key < out[j].Key
	})
	return out
}
