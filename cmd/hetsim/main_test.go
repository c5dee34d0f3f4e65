package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// pair is the two-benchmark invocation the resume test interrupts: run
// serially at medium size, so SIGINT sent when the first run starts lands
// while it is in flight.
var pair = []string{"-bench", "rodinia/backprop,rodinia/nw", "-jobs", "1", "-size", "medium"}

// buildCmd compiles the command in pkg into dir/name and returns its path.
func buildCmd(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// storedRuns counts the run records in a -state dir.
func storedRuns(dir string) int {
	paths, _ := filepath.Glob(filepath.Join(dir, "run-*.entry"))
	return len(paths)
}

// run executes bin with args and returns its stdout and stderr.
func run(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestInterruptAndResume: an invocation with -state that gets SIGINT
// once its first run starts exits 130 and advertises resume; a rerun
// with the same -state reuses the stored runs and prints stdout
// byte-identical to an uninterrupted invocation.
func TestInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "hetsim", ".")
	stateDir := filepath.Join(dir, "state")
	clean, _ := run(t, bin, pair...)

	cmd := exec.Command(bin, append(pair, "-state", stateDir, "-progress")...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	signaled := false
	for sc := bufio.NewScanner(pipe); sc.Scan(); {
		stderr.WriteString(sc.Text() + "\n")
		if !signaled && strings.Contains(sc.Text(), "] start ") {
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			signaled = true
		}
	}
	err = cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run exit = %v, want exit status 130; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume with:") {
		t.Fatalf("interrupted run did not advertise resume; stderr:\n%s", stderr.String())
	}

	stored := storedRuns(stateDir)
	t.Logf("%d of 2 runs stored before the rerun", stored)
	out, errOut := run(t, bin, append(pair, "-state", stateDir)...)
	if want := fmt.Sprintf("reusing %d stored runs", stored); !strings.Contains(errOut, want) {
		t.Fatalf("rerun stderr lacks %q:\n%s", want, errOut)
	}
	if out != clean {
		t.Fatalf("resumed stdout differs from an uninterrupted run\n--- clean\n%s\n--- resumed\n%s", clean, out)
	}
}

// TestReusesSweepRun: a run a cmd/experiments sweep stored is the run
// hetsim asks for, so hetsim reuses it instead of simulating.
func TestReusesSweepRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "hetsim", ".")
	experiments := buildCmd(t, dir, "experiments", "../experiments")
	stateDir := filepath.Join(dir, "state")
	one := []string{"-bench", "rodinia/nw", "-mode", "copy"}
	fresh, _ := run(t, bin, one...)

	run(t, experiments, "-exp", "fig4", "-only", "rodinia/nw", "-jobs", "1", "-q", "-state", stateDir)
	stored := storedRuns(stateDir)
	if stored == 0 {
		t.Fatal("the sweep stored no runs")
	}

	out, errOut := run(t, bin, append(one, "-state", stateDir)...)
	if !strings.Contains(errOut, "reusing 1 stored runs") {
		t.Fatalf("hetsim stderr lacks the reuse line:\n%s", errOut)
	}
	if out != fresh {
		t.Fatalf("reused report differs from a fresh run\n--- fresh\n%s\n--- reused\n%s", fresh, out)
	}
	if got := storedRuns(stateDir); got != stored {
		t.Fatalf("store holds %d runs after the reuse, want the sweep's %d", got, stored)
	}
	// A simulated run carries its live machine; only a stored one prints
	// the note in place of the counter dump.
	out, _ = run(t, bin, append(one, "-state", stateDir, "-counters")...)
	if !strings.Contains(out, "(reused from the run store; live counters not recorded)") {
		t.Fatalf("-counters output is not from a stored run:\n%s", out)
	}
}

// TestRejectsUnknownSize: a -size other than small or medium is a usage
// error (exit 2), not a run at the default size.
func TestRejectsUnknownSize(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildCmd(t, t.TempDir(), "hetsim", ".")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-bench", "rodinia/nw", "-size", "large")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-size large: %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), `unknown size "large"`) {
		t.Fatalf("-size large: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
