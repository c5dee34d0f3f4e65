package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sweepArgs is the restricted sweep the integration test runs: a handful
// of benchmarks, serial, figures only — big enough that SIGINT lands
// mid-sweep, small enough to keep the test quick.
var sweepArgs = []string{
	"-exp", "fig4,fig6",
	"-only", "rodinia/backprop,rodinia/kmeans,rodinia/srad,rodinia/bfs,rodinia/hotspot,rodinia/pathfinder",
	"-jobs", "1", "-q",
}

// buildBinary compiles this command into dir and returns the binary path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// storedRuns counts the run records in a -state dir.
func storedRuns(dir string) int {
	paths, _ := filepath.Glob(filepath.Join(dir, "run-*.entry"))
	return len(paths)
}

// simRuns extracts sim_runs_started_total from a -metrics dump.
func simRuns(t *testing.T, stderr string) int {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if v, ok := strings.CutPrefix(line, "sim_runs_started_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad metric line %q", line)
			}
			return n
		}
	}
	t.Fatalf("no sim_runs_started_total in stderr:\n%s", stderr)
	return 0
}

// TestInterruptAndResume is the end-to-end crash-safety acceptance test:
// a sweep with -state killed with SIGINT mid-run must exit 130 with its
// completed runs stored, and a second invocation with the same -state
// must simulate only the missing runs and produce stdout byte-identical
// to an uninterrupted sweep.
func TestInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	stateDir := filepath.Join(dir, "state")

	// Reference: the uninterrupted sweep's stdout and run count.
	var clean, cleanErr bytes.Buffer
	cmd := exec.Command(bin, append(sweepArgs, "-metrics")...)
	cmd.Stdout, cmd.Stderr = &clean, &cleanErr
	if err := cmd.Run(); err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	total := simRuns(t, cleanErr.String())

	// Interrupted sweep: SIGINT once three runs are stored.
	var stdout, stderr bytes.Buffer
	cmd = exec.Command(bin, append(sweepArgs, "-state", stateDir)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for storedRuns(stateDir) < 3 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("store never reached 3 runs; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted sweep exit = %v, want exit status 130; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume with:") {
		t.Fatalf("interrupted sweep did not advertise resume; stderr:\n%s", stderr.String())
	}
	if bytes.Equal(stdout.Bytes(), clean.Bytes()) {
		t.Fatal("interrupted sweep printed the full report; SIGINT landed too late to test resume")
	}
	stored := storedRuns(stateDir)
	if stored >= total {
		t.Fatalf("%d of %d runs stored before the rerun; nothing left to resume", stored, total)
	}

	// Rerun with the same -state: reuse the stored runs, simulate the
	// rest, match the clean stdout byte for byte.
	var rout, rerr bytes.Buffer
	cmd = exec.Command(bin, append(sweepArgs, "-state", stateDir, "-metrics")...)
	cmd.Stdout, cmd.Stderr = &rout, &rerr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resumed sweep: %v\nstderr:\n%s", err, rerr.String())
	}
	if want := fmt.Sprintf("reusing %d stored runs", stored); !strings.Contains(rerr.String(), want) {
		t.Fatalf("resumed sweep stderr lacks %q:\n%s", want, rerr.String())
	}
	if got := simRuns(t, rerr.String()); got != total-stored {
		t.Fatalf("resumed sweep simulated %d runs, want the %d missing ones", got, total-stored)
	}
	if !bytes.Equal(rout.Bytes(), clean.Bytes()) {
		t.Fatalf("resumed stdout differs from the uninterrupted sweep\n--- clean\n%s\n--- resumed\n%s",
			clean.Bytes(), rout.Bytes())
	}
}

// TestStateReusesOverlappingRuns: a sweep whose benchmark list overlaps
// an earlier sweep on the same -state dir simulates only the new
// benchmark's runs and prints what a sweep on a fresh dir would.
func TestStateReusesOverlappingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	stateDir := filepath.Join(dir, "state")

	first := []string{"-exp", "fig4", "-only", "rodinia/backprop", "-jobs", "1", "-q", "-state", stateDir}
	if out, err := exec.Command(bin, first...).CombinedOutput(); err != nil {
		t.Fatalf("first sweep: %v\n%s", err, out)
	}
	stored := storedRuns(stateDir)

	pair := []string{"-exp", "fig4", "-only", "rodinia/backprop,rodinia/nw", "-jobs", "1", "-q", "-metrics"}
	var fresh, freshErr bytes.Buffer
	cmd := exec.Command(bin, pair...)
	cmd.Stdout, cmd.Stderr = &fresh, &freshErr
	if err := cmd.Run(); err != nil {
		t.Fatalf("fresh sweep: %v", err)
	}
	var out, errOut bytes.Buffer
	cmd = exec.Command(bin, append(pair, "-state", stateDir)...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("overlapping sweep: %v\n%s", err, errOut.String())
	}
	if got, want := simRuns(t, errOut.String()), simRuns(t, freshErr.String())-stored; got != want {
		t.Fatalf("overlapping sweep simulated %d runs, want %d", got, want)
	}
	if !bytes.Equal(out.Bytes(), fresh.Bytes()) {
		t.Fatalf("overlapping sweep differs from a fresh one\n--- fresh\n%s\n--- reused\n%s", fresh.Bytes(), out.Bytes())
	}
}

// exitCode runs bin with args and returns its exit status and stderr.
func exitCode(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestRejectsUnknownExperiment: a misspelled -exp name is a usage error
// naming the bad name and the valid list, not a silently empty run.
func TestRejectsUnknownExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildBinary(t, t.TempDir())
	for _, exp := range []string{"fig33", "table1,fgi6"} {
		code, stdout, stderr := exitCode(t, bin, "-exp", exp, "-q")
		if code != 2 || stdout != "" {
			t.Fatalf("-exp %s: exit %d, stdout %q; want exit 2 and no output", exp, code, stdout)
		}
		bad := exp[strings.LastIndex(exp, ",")+1:]
		if !strings.Contains(stderr, fmt.Sprintf("%q", bad)) || !strings.Contains(stderr, "table1, table2, ablation, faults, fig3") {
			t.Fatalf("-exp %s: stderr does not name the bad experiment and the valid list:\n%s", exp, stderr)
		}
	}
}

// TestFig3FaultsShareStore: the ablations, Figure 3 and the fault matrix
// run through the run store like the sweep does. Each ablation knob's
// stock point is the fault matrix's nominal run of its benchmark, and the
// kmeans one is Figure 3's baseline too, so a fresh store simulates each
// of those once; a rerun on the same store simulates nothing and prints
// the same bytes.
func TestFig3FaultsShareStore(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	args := []string{"-exp", "ablation,fig3,faults", "-jobs", "1", "-q", "-metrics", "-state", filepath.Join(dir, "state")}
	code, first, stderr := exitCode(t, bin, args...)
	if code != 0 {
		t.Fatalf("first run exit %d:\n%s", code, stderr)
	}
	// 15 ablation runs, 3 of them the fault matrix's nominal runs, plus
	// 3 injected runs and the 3 kmeans organizations besides copy.
	if got := simRuns(t, stderr); got != 21 {
		t.Fatalf("first run simulated %d runs, want 21", got)
	}
	code, second, stderr := exitCode(t, bin, args...)
	if code != 0 {
		t.Fatalf("second run exit %d:\n%s", code, stderr)
	}
	if got := simRuns(t, stderr); got != 0 {
		t.Fatalf("second run simulated %d runs, want 0", got)
	}
	if second != first {
		t.Fatalf("stdout from the store differs\n--- first\n%s\n--- second\n%s", first, second)
	}
}
