package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// This file attributes host CPU time and allocated bytes to the
// repository's modules from the benchmark's own profiles; nothing inside
// the program is instrumented. A sample belongs to the innermost frame of
// a repro/internal/<module> package on its stack. A sample with no such
// frame belongs to the benchmark itself ("perfbench": the HTTP client and
// wrappers) when a frame of package main is on the stack, and to the Go
// runtime ("go") otherwise.

const repoPrefix = "repro/internal/"

// layerOf names the layer a function belongs to, or "" for a frame that
// decides nothing (standard library, runtime).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	return ""
}

// attribute walks frames innermost first and returns the layer of the
// innermost repository frame.
func attribute(frames []string) string {
	bench := false
	for _, fn := range frames {
		switch l := layerOf(fn); l {
		case "":
		case "perfbench":
			bench = true
		default:
			return l
		}
	}
	if bench {
		return "perfbench"
	}
	return "go"
}

// profiler collects per-layer CPU seconds and allocated bytes over the
// traced passes.
type profiler struct {
	cpu    map[string]float64 // layer -> CPU seconds
	alloc  map[string]float64 // layer -> bytes
	cpuBuf bytes.Buffer
	mem    map[[32]uintptr]memRec // allocation profile at start of pass
	dir    string                 // where raw CPU profiles are kept
	passes int
}

type memRec struct{ bytes, objects int64 }

func newProfiler(dir string) *profiler {
	return &profiler{cpu: map[string]float64{}, alloc: map[string]float64{}, dir: dir}
}

// start begins one traced pass.
func (p *profiler) start() error {
	p.mem = memProfile()
	p.cpuBuf.Reset()
	return pprof.StartCPUProfile(&p.cpuBuf)
}

// stop ends the traced pass and folds its samples in. The raw CPU profile,
// with its pprof labels, is kept for `go tool pprof -tagfocus`.
func (p *profiler) stop(name string) error {
	pprof.StopCPUProfile()
	p.passes++
	raw := p.cpuBuf.Bytes()
	if p.dir != "" {
		if err := os.WriteFile(filepath.Join(p.dir, fmt.Sprintf("%s-%d.pprof", name, p.passes)), raw, 0o644); err != nil {
			return err
		}
	}
	if err := foldCPU(raw, p.cpu); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for stk, now := range memProfile() {
		was := p.mem[stk]
		if d := now.bytes - was.bytes; d > 0 {
			p.alloc[attribute(framesOf(stk[:]))] += scaleAlloc(d, now.objects-was.objects)
		}
	}
	return nil
}

// memProfile snapshots the cumulative allocation profile. The runtime
// publishes allocations at the end of a GC cycle and may lag by two, so
// two forced collections come first; they run outside timed regions.
func memProfile() map[[32]uintptr]memRec {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	out := make(map[[32]uintptr]memRec, len(recs))
	for _, r := range recs {
		m := out[r.Stack0]
		m.bytes += r.AllocBytes
		m.objects += r.AllocObjects
		out[r.Stack0] = m
	}
	return out
}

// scaleAlloc undoes allocation sampling the way pprof does: an object of
// size s is recorded with probability 1-exp(-s/rate).
func scaleAlloc(bytes, objects int64) float64 {
	rate := float64(runtime.MemProfileRate)
	if objects <= 0 || rate <= 1 {
		return float64(bytes)
	}
	avg := float64(bytes) / float64(objects)
	return float64(bytes) / (1 - math.Exp(-avg/rate))
}

func framesOf(stk []uintptr) []string {
	var out []string
	for i, pc := range stk {
		if pc == 0 {
			stk = stk[:i]
			break
		}
	}
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// withLabels runs f under pprof labels naming the workload and the call
// into the program, so a saved profile splits by call.
func withLabels(ctx context.Context, workload, call string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("workload", workload, "call", call), f)
}

// foldCPU decodes a gzipped profile.proto CPU profile and adds each
// sample's CPU seconds to its layer. Only the fields attribution needs
// are read: sample (2), location (4), function (5) and string_table (6).
func foldCPU(gz []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		samples   [][]byte
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> string index
		strs      []string
		valueType [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			valueType = append(valueType, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The CPU profile's values are [samples/count, cpu/nanoseconds].
	idx := -1
	for i, vt := range valueType {
		err := eachField(vt, func(num int, v uint64, _ []byte) error {
			if num == 1 && int(v) < len(strs) && strs[v] == "cpu" {
				idx = i
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if idx < 0 {
		return errors.New("no cpu sample type")
	}
	for _, s := range samples {
		var locs, vals []uint64
		err := eachField(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				locs = appendVarints(locs, v, b)
			case 2:
				vals = appendVarints(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if idx >= len(vals) {
			continue
		}
		var frames []string
		for _, l := range locs {
			for _, fn := range locLines[l] {
				if si := funcName[fn]; int(si) < len(strs) {
					frames = append(frames, strs[si])
				}
			}
		}
		into[attribute(frames)] += float64(int64(vals[idx])) / 1e9
	}
	return nil
}

// eachField walks one protobuf message. For varint fields fn gets the
// value in v; for length-delimited fields, the bytes in b. Fixed-width
// fields are skipped: no field attribution reads has one.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
