package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSnap is the process-wide counters a pass is measured by.
type hostSnap struct {
	at       time.Time
	cpu      time.Duration // user + sys
	alloc    uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // cumulative GC CPU seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func snapHost() hostSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	return hostSnap{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
	}
}

// sampleRSS samples the process's resident set size every few
// milliseconds until the returned stop is called, which returns the
// largest sample in bytes.
func sampleRSS() (stop func() float64) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return func() float64 { return 0 }
	}
	var buf [128]byte
	rss := func() uint64 { // statm's second field: resident pages
		n, _ := f.ReadAt(buf[:], 0)
		var v uint64
		field := 0
		for _, c := range buf[:n] {
			switch {
			case c == ' ':
				field++
			case field == 1 && c >= '0' && c <= '9':
				v = v*10 + uint64(c-'0')
			}
		}
		return v * uint64(os.Getpagesize())
	}
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		defer f.Close()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		top := rss()
		for {
			select {
			case <-tick.C:
				top = max(top, rss())
			case <-done:
				peak <- max(top, rss())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak)
	}
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed pure-CPU loop: no allocation, no memory beyond
// registers, no syscalls. It changes only when the machine does, so a
// shift in it between two sets of runs points at the host, not the code.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0)
}

// cpuTicks reads the machine-wide CPU time counters: the time stolen by
// the hypervisor for other guests, and the total. Zero when unreadable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the processor model name for the output header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
