// Command benchdiff compares `go test -bench -benchmem` output against a
// committed baseline (BENCH_small.json) and fails on allocation regressions.
//
// Timing (ns/op) is machine-dependent, so it is reported for context but
// never gated. Allocation counts and bytes (allocs/op, B/op) are
// deterministic for a given binary, so an increase over the baseline is a
// hard failure — this is the hot-path-allocation ratchet: once a path
// reaches 0 allocs/op (or 0 B/op) it cannot silently grow one back. Small
// values gate exactly; values above 64 (whole-sweep rows) get 2% headroom
// for runtime noise like map-growth timing.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_small.json bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_small.json -update bench.txt
//
// With -update the baseline file is refreshed from the observed results
// instead of being compared (run this after an intentional change, on the
// reference machine, and commit the diff). The update merges: rows the
// input does not mention keep their committed values, so a partial bench
// run refreshes only its own rows; -prune drops the unmentioned rows
// instead. A row already in the baseline takes the observed ns/op, but
// keeps its committed B/op and allocs/op while the observed ones stay
// within the gate's headroom, so a refresh moves a ceiling only for a
// real change. The note field is preserved unless -note replaces it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured cost per operation.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the committed reference file. Note holds provenance
// (machine class, how to refresh) for human readers.
type Baseline struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkCacheHit-8   	12345678	       95.2 ns/op	       0 B/op	       0 allocs/op
//	BenchmarkSweepSmall/jobs=1-8	       1	123456789 ns/op	 5678 B/op	  123 allocs/op
//
// Custom b.ReportMetric columns may sit between ns/op and B/op (BenchmarkFig3
// reports figure-level metrics), so the memory columns are matched anywhere
// after ns/op.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*\s([\d.]+) B/op\s+(\d+) allocs/op)?`)

// dupSuffix is Go's disambiguator for repeated sub-benchmark names
// (e.g. jobs=1 run twice on a single-core machine becomes jobs=1#01).
var dupSuffix = regexp.MustCompile(`#\d+$`)

func parseBench(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := dupSuffix.ReplaceAllString(m[1], "")
		if _, dup := out[name]; dup {
			continue // keep the first of a duplicated sub-benchmark
		}
		var res Result
		res.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			res.BytesPerOp = int64(b)
			res.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		} else {
			// No -benchmem columns: allocation gating is impossible.
			res.BytesPerOp, res.AllocsPerOp = -1, -1
		}
		out[name] = res
	}
	return out, sc.Err()
}

func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func writeBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ratio(now, was float64) string {
	if was == 0 {
		if now == 0 {
			return "="
		}
		return "new>0"
	}
	return fmt.Sprintf("%+.1f%%", (now/was-1)*100)
}

// limit is the largest value a gated column may reach given its baseline:
// exact for small values, so a zero-alloc path can never grow one back,
// and 2% headroom above 64 for whole-sweep rows.
func limit(was int64) int64 {
	if was > 64 {
		return was + was/50
	}
	return was
}

// refresh is the -update value of a row the baseline already holds: the
// observed ns/op, and each gated column's committed value unless the
// observed one moved past limit's headroom in either direction.
func refresh(now, was Result) Result {
	keep := func(now, was int64) int64 {
		if d := now - was; max(d, -d) <= limit(was)-was {
			return was
		}
		return now
	}
	now.BytesPerOp = keep(now.BytesPerOp, was.BytesPerOp)
	now.AllocsPerOp = keep(now.AllocsPerOp, was.AllocsPerOp)
	return now
}

// gate decides one benchmark row: "ok", "FAIL allocs" or "FAIL B/op" when
// a column exceeds its limit, or "no -benchmem" when either side lacks
// the memory columns.
func gate(now, was Result) string {
	switch {
	case now.AllocsPerOp < 0 || was.AllocsPerOp < 0:
		return "no -benchmem"
	case now.AllocsPerOp > limit(was.AllocsPerOp):
		return "FAIL allocs"
	case now.BytesPerOp > limit(was.BytesPerOp):
		return "FAIL B/op"
	}
	return "ok"
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_small.json", "baseline JSON file")
	update := flag.Bool("update", false, "rewrite the baseline from the observed results")
	note := flag.String("note", "", "with -update: provenance note stored in the baseline")
	prune := flag.Bool("prune", false, "with -update: drop baseline rows absent from the input instead of keeping them")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines found in input")
		os.Exit(2)
	}

	if *update {
		// Merge, don't replace: rows absent from this bench run keep
		// their committed values, so a partial run (one new benchmark,
		// one package) can refresh its rows without dropping the rest of
		// the ratchet. -prune rewrites from the observed set alone.
		observed := len(got)
		b := &Baseline{Note: *note, Benchmarks: got}
		if old, err := loadBaseline(*baselinePath); err == nil {
			if *note == "" {
				b.Note = old.Note
			}
			for name, res := range old.Benchmarks {
				if now, ok := got[name]; ok {
					b.Benchmarks[name] = refresh(now, res)
				} else if !*prune {
					b.Benchmarks[name] = res
				}
			}
		}
		if err := writeBaseline(*baselinePath, b); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s (%d from this run)\n",
			len(b.Benchmarks), *baselinePath, observed)
		return
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)

	fail := false
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-44s %14s %12s %14s %10s\n", "benchmark", "ns/op (info)", "ns Δ", "allocs/op", "gate")
	for _, name := range names {
		now := got[name]
		was, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14.1f %12s %14d %10s\n",
				name, now.NsPerOp, "-", now.AllocsPerOp, "NEW")
			continue
		}
		g := gate(now, was)
		fail = fail || strings.HasPrefix(g, "FAIL")
		fmt.Fprintf(w, "%-44s %14.1f %12s %6d (was %3d) %10s\n",
			name, now.NsPerOp, ratio(now.NsPerOp, was.NsPerOp), now.AllocsPerOp, was.AllocsPerOp, g)
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			fmt.Fprintf(w, "%-44s %14s %12s %14s %10s\n", name, "-", "-", "-", "MISSING")
		}
	}
	w.Flush()

	if fail {
		fmt.Fprintln(os.Stderr, "benchdiff: allocation regression vs", *baselinePath)
		os.Exit(1)
	}
}
