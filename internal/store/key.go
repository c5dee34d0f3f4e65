package store

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/fsx"
	"repro/internal/harness"
)

// Version opens every key this repo hashes. Bumping it orphans every
// stored entry (they stop matching and age out under the quota), which is
// the safe failure mode for a change in what a key means.
const Version = "1"

// RunKeyPrefix starts every run key. Document keys are bare sha256 hex,
// so a run record and a response document can never share a key — not
// even by a hash collision — and a directory listing tells them apart.
const RunKeyPrefix = "run-"

// Fingerprint builds a key: it hashes a sequence of labeled parts into a
// stable hex digest. Parts are length-prefixed so no concatenation of
// different part lists collides.
type Fingerprint struct {
	parts []string
}

// Add appends one labeled part.
func (fp *Fingerprint) Add(label, value string) {
	fp.parts = append(fp.parts, label, value)
}

// Sum returns the hex digest over all parts added so far.
func (fp *Fingerprint) Sum() string {
	var b strings.Builder
	for _, p := range fp.parts {
		fmt.Fprintf(&b, "%d:%s", len(p), p)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// AddSystems hashes the compiled-in simulated machines, so a code change
// to either one stops old entries from matching.
func (fp *Fingerprint) AddSystems() {
	fp.Add("discrete", fmt.Sprintf("%+v", config.DiscreteGPU()))
	fp.Add("hetero", fmt.Sprintf("%+v", config.HeteroProcessor()))
}

// RunKey is the key of one run's record: a hash of everything that
// determines the run's outcome — benchmark, mode, size, both simulated
// machines, fault plan, event and wall-clock budgets, attempt cap, stall
// window, and whether the run is traced. Scheduling inputs (intra-run
// workers, retry backoff and jitter, the request ID, cancellation and
// progress hooks) are left out: results are byte-identical for every
// value, so a run simulated for one request serves any other.
func RunKey(spec harness.Spec) string {
	var fp Fingerprint
	fp.Add("version", Version)
	fp.Add("kind", "record")
	fp.AddSystems()
	fp.Add("bench", spec.Bench.Info().FullName())
	fp.Add("mode", spec.Mode.String())
	fp.Add("size", spec.Size.String())
	fp.Add("fault", spec.Fault.String())
	fp.Add("max_events", strconv.FormatUint(spec.Budget.MaxEvents, 10))
	fp.Add("timeout", spec.Budget.Timeout.String())
	fp.Add("max_attempts", strconv.Itoa(spec.MaxAttempts))
	fp.Add("stall", spec.Stall.String())
	fp.Add("trace", strconv.FormatBool(spec.Trace != nil))
	return RunKeyPrefix + fp.Sum()
}

// SyncDir fsyncs the directory at dir. A freshly created or renamed file
// is only durable once its directory entry is too: fsyncing the file
// flushes its contents, but the entry naming it lives in the directory,
// and a crash before the directory reaches stable storage can lose the
// file wholesale.
func SyncDir(fsys fsx.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}
