package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/fsx"
	"repro/internal/harness"
)

// Version opens every key this repo hashes. Bumping it orphans every
// stored entry (they stop matching and age out under the quota), which is
// the safe failure mode for a change in what a key means.
const Version = "2"

// RunKeyPrefix starts every run key. Document keys are bare sha256 hex,
// so a run record and a response document can never share a key — not
// even by a hash collision — and a directory listing tells them apart.
const RunKeyPrefix = "run-"

// fingerprint builds a key: it hashes a sequence of labeled parts into a
// stable hex digest. Parts are length-prefixed so no concatenation of
// different part lists collides. It is unexported so that RunKey stays
// the one list of result inputs; every other key is built from run keys.
type fingerprint struct {
	parts []string
}

// Add appends one labeled part.
func (fp *fingerprint) Add(label, value string) {
	fp.parts = append(fp.parts, label, value)
}

// Sum returns the hex digest over all parts added so far.
func (fp *fingerprint) Sum() string {
	var b []byte
	for _, p := range fp.parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// RunKey is the key of one run's record, and the one list of what
// determines a run's outcome: benchmark, mode, size, the simulated
// machine (every field, injected faults included), event and wall-clock
// budgets, stall window, and whether the run is traced. A nil Machine
// keys like its mode's stock machine named explicitly, and a code change
// to a machine moves its keys. Scheduling inputs (intra-run workers, the
// request ID, cancellation and progress hooks) are left out: results are
// byte-identical for every value, so a run simulated for one request
// serves any other. Document keys (DocKey) are built from run keys, so
// they follow this list too.
func RunKey(spec harness.Spec) string {
	var fp fingerprint
	fp.Add("version", Version)
	fp.Add("kind", "record")
	fp.Add("bench", spec.Bench.Info().FullName())
	fp.Add("mode", spec.Mode.String())
	fp.Add("size", spec.Size.String())
	// %#v prints every field as it is: %+v would render Faults through
	// FaultConfig.String, which reads "none" for a latency multiplier
	// below 1 that still scales the fault handler.
	fp.Add("machine", fmt.Sprintf("%#v", spec.Config()))
	fp.Add("max_events", strconv.FormatUint(spec.Budget.MaxEvents, 10))
	fp.Add("timeout", spec.Budget.Timeout.String())
	fp.Add("stall", spec.Stall.String())
	fp.Add("trace", strconv.FormatBool(spec.Trace != nil))
	return RunKeyPrefix + fp.Sum()
}

// DocKey is the key of a response document assembled from runs: a hash
// of the document's kind and its runs' keys, in order. A document is a
// pure function of its runs, so its key moves exactly when one of theirs
// does.
func DocKey(kind string, runKeys ...string) string {
	var fp fingerprint
	fp.Add("version", Version)
	fp.Add("kind", kind)
	for _, k := range runKeys {
		fp.Add("run", k)
	}
	return fp.Sum()
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
