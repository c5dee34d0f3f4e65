package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sweepBody is the request the integration test drives: enough runs that
// SIGTERM lands mid-sweep on any machine, small enough to stay quick.
const sweepBody = `{"size": "small", "benchmarks": ["rodinia/backprop", "rodinia/bfs", "rodinia/kmeans", "rodinia/hotspot", "rodinia/srad", "rodinia/pathfinder"]}`

// buildBinary compiles hetsimd into dir and returns the binary path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hetsimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running hetsimd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
}

// startDaemon launches the binary on a free port and waits for its
// listening announcement.
func startDaemon(t *testing.T, bin, stateDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", stateDir)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.WriteString(line + "\n")
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.base = addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never announced its port; stderr:\n%s", d.stderr)
	}
	return d
}

// stop sends SIGTERM and waits, returning the exit code.
func (d *daemon) stop(t *testing.T) int {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	return d.wait(t)
}

func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("daemon wait: %v", err)
	return -1
}

// postSweep submits the test sweep and returns status, headers, body.
func postSweep(t *testing.T, base string) (*http.Response, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Minute}
	resp, err := client.Post(base+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read sweep response: %v", err)
	}
	return resp, body
}

// simRuns scrapes the daemon's sim_runs_started_total.
func simRuns(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "sim_runs_started_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad metric line %q", sc.Text())
			}
			return n
		}
	}
	t.Fatal("scrape has no sim_runs_started_total")
	return 0
}

// TestDrainResumeAndCache is the daemon's end-to-end acceptance test:
// SIGTERM mid-sweep must drain cleanly (exit 0) after storing the
// completed runs and answering the in-flight request with the draining
// error; a restarted daemon on the same state dir must reuse those runs,
// simulate only the missing ones, and produce a response byte-identical
// to an uninterrupted daemon's; and a repeat of that request must be a
// pure cache hit with the same bytes.
func TestDrainResumeAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)

	// Reference: an uninterrupted daemon's response and run count.
	ref := startDaemon(t, bin, filepath.Join(dir, "stateA"))
	refResp, refBody := postSweep(t, ref.base)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep = %d; body: %s", refResp.StatusCode, refBody)
	}
	total := simRuns(t, ref.base)
	if code := ref.stop(t); code != 0 {
		t.Fatalf("idle daemon drain exit = %d, want 0; stderr:\n%s", code, ref.stderr)
	}

	// Interrupted daemon: SIGTERM once two runs are stored.
	stateB := filepath.Join(dir, "stateB")
	d := startDaemon(t, bin, stateB)
	type result struct {
		resp *http.Response
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := postSweep(t, d.base)
		inflight <- result{resp, body}
	}()
	recordGlob := filepath.Join(stateB, "cache", "run-*.entry")
	stored := func() int {
		paths, _ := filepath.Glob(recordGlob)
		return len(paths)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for stored() < 2 {
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			t.Fatalf("store never reached 2 runs; stderr:\n%s", d.stderr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	res := <-inflight
	if res.resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("interrupted sweep = %d, want 503; body: %s", res.resp.StatusCode, res.body)
	}
	if !bytes.Contains(res.body, []byte("resubmit")) {
		t.Fatalf("interrupted sweep does not advertise resume: %s", res.body)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("drain exit = %d, want 0; stderr:\n%s", code, d.stderr)
	}
	kept := stored()
	if kept < 2 || kept >= total {
		t.Fatalf("%d of %d runs stored after the drain, want some but not all", kept, total)
	}

	// Restarted daemon: reuse the stored runs, finish, match the reference.
	d2 := startDaemon(t, bin, stateB)
	resp2, body2 := postSweep(t, d2.base)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resumed sweep = %d; body: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Hetsimd-Cache"); got != "miss" {
		t.Fatalf("resumed sweep X-Hetsimd-Cache = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Hetsimd-Resumed"); got != strconv.Itoa(kept) {
		t.Fatalf("resumed sweep X-Hetsimd-Resumed = %q, want %d", got, kept)
	}
	if got := simRuns(t, d2.base); got != total-kept {
		t.Fatalf("resumed sweep simulated %d runs, want the %d missing ones", got, total-kept)
	}
	if !bytes.Equal(body2, refBody) {
		t.Fatal("resumed response differs from the uninterrupted daemon's")
	}

	// Repeat: a pure cache hit, byte-identical.
	resp3, body3 := postSweep(t, d2.base)
	if got := resp3.Header.Get("X-Hetsimd-Cache"); got != "hit" {
		t.Fatalf("repeat sweep X-Hetsimd-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body3, refBody) {
		t.Fatal("cached response differs from the uninterrupted daemon's")
	}
	if code := d2.stop(t); code != 0 {
		t.Fatalf("final drain exit = %d, want 0; stderr:\n%s", code, d2.stderr)
	}
}

// TestParseBytes covers the -state-quota size grammar: bare integers,
// binary-multiple suffixes in either case with optional B/iB, and the
// empty string meaning unlimited.
func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"8K", 8 << 10, true},
		{"512M", 512 << 20, true},
		{"512MB", 512 << 20, true},
		{"512MiB", 512 << 20, true},
		{"2g", 2 << 30, true},
		{"1T", 1 << 40, true},
		{"-1", 0, false},
		{"12Q", 0, false},
		{"M", 0, false},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("parseBytes(%q) = (%d, %v), want (%d, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}
