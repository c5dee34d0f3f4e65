package store

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/harness"
)

// Records is one invocation's view of a store's run records — a sweep,
// a hetsim command, or one hetsimd request. Get looks a run key up; Put
// stores a completed run. The first failed Put is sticky: later Puts are
// skipped and Err reports it, so a full disk degrades the invocation to
// unpersisted instead of failing one write per run. A nil *Records
// ignores every call, so unpersisted callers need no branching. Safe for
// concurrent use by pool workers.
type Records struct {
	st  *Store
	mu  sync.Mutex
	err error
}

// Records starts a fresh view of s's run records.
func (s *Store) Records() *Records { return &Records{st: s} }

// Get returns the outcome stored under key, or nil on a miss. The
// record is verified like every entry; a damaged or undecodable one is
// quarantined and reads as a miss, so the run simulates again. The
// outcome's Sys is always nil — live machine state is not persisted.
func (r *Records) Get(key string) *harness.Outcome {
	if r == nil {
		return nil
	}
	body, ok := r.st.Get(key)
	if !ok {
		return nil
	}
	out := &harness.Outcome{}
	if err := json.Unmarshal(body, out); err != nil {
		r.st.quarantine(key, fmt.Errorf("bad run record: %w", err))
		return nil
	}
	return out
}

// Put durably stores a completed run under key. Canceled outcomes are
// skipped: a KindCanceled run is an artifact of the shutdown that
// interrupted it, not a result, and storing it would make every later
// lookup replay the interruption instead of running the benchmark.
func (r *Records) Put(key string, out *harness.Outcome) {
	if r == nil || (out.Err != nil && out.Err.Kind == harness.KindCanceled) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	body, err := json.Marshal(out)
	if err == nil {
		err = r.st.Put(key, body)
	}
	r.err = err
}

// Err reports the first failed Put, if any.
func (r *Records) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
