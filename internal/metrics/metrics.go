// Package metrics is the service-telemetry layer: a dependency-free,
// allocation-conscious metrics registry the daemon and the CLI sweeps
// funnel their operational counters through. The paper's whole method is
// accounting for where time goes; once the reproduction runs as a
// long-lived service, the serving path itself needs the same discipline —
// request rates and latencies, admission-gate depth, store hits, reused
// runs, run outcomes — exported live instead of buried in per-run
// trace files.
//
// The design constraints mirror internal/trace:
//
//   - Handles, not lookups, on hot paths: a Counter/Gauge/Histogram is a
//     plain struct around pre-resolved atomic slots, obtained once at
//     construction (or package init) time. Inc/Add/Set/Observe perform
//     zero allocations — asserted by TestMetricIncZeroAlloc — so
//     instrumented code can never regress the allocation ratchet
//     cmd/benchdiff gates.
//   - No dependencies: the exposition writer emits Prometheus text format
//     v0.0.4 directly, so nothing outside the standard library is needed
//     to scrape GET /metrics with a stock Prometheus.
//   - Deterministic output: families render sorted by name and series
//     sorted by label values, so two Snapshot/WriteText calls over the
//     same state produce identical bytes (tests diff them).
//
// Histograms use fixed log-scale buckets (LogBuckets): the quantities the
// simulator service measures — request latencies, queue waits, events/sec
// — span orders of magnitude, and a fixed geometric ladder keeps bucket
// count small while resolving every decade equally.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Type discriminates metric families.
type Type uint8

const (
	TypeCounter Type = iota
	TypeGauge
	TypeHistogram
)

// String names the type as the exposition format spells it.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families. The zero value is not usable; build
// with NewRegistry. Registration is idempotent: registering a name that
// already exists with the identical type, help, labels, and buckets
// returns the existing family's handles (so package-level handle vars and
// repeated server construction in tests coexist); a mismatch panics — two
// definitions of one name is a programming error, not a runtime
// condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry: the harness and sweep layers
// register their run-lifecycle counters here at package init, the
// daemon serves it at GET /metrics, and cmd/experiments dumps it with
// -metrics — one registry, so an access log line, a scrape, and a CLI
// summary all describe the same counters.
var Default = NewRegistry()

// family is one named metric with a fixed label schema and its series.
type family struct {
	name    string
	help    string
	typ     Type
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing, no +Inf

	mu     sync.Mutex
	series []*series // creation order; sorted at render time
}

// series is one labeled instance of a family. The atomic fields double as
// storage for all three types: count is the counter value and the
// histogram observation count, gauge the gauge value, sumBits the
// histogram sum as float bits.
type series struct {
	vals    []string
	count   atomic.Uint64
	gauge   atomic.Int64
	sumBits atomic.Uint64
	buckets []atomic.Uint64 // per-bucket (non-cumulative) counts
	upper   []float64       // family.buckets, shared
}

func (r *Registry) register(name, help string, typ Type, labels []string, buckets []float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	if typ == TypeHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
		}
		for i, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= buckets[i-1]) {
				panic(fmt.Sprintf("metrics: histogram %q buckets must be finite and strictly increasing", name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: %q re-registered with a different definition", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get resolves (creating if needed) the series for vals. Resolution locks
// and may allocate; callers resolve once and hold the handle.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		if equalStrings(s.vals, vals) {
			return s
		}
	}
	s := &series{vals: append([]string(nil), vals...), upper: f.buckets}
	if f.typ == TypeHistogram {
		s.buckets = make([]atomic.Uint64, len(f.buckets))
	}
	f.series = append(f.series, s)
	return s
}

// Counter is a handle to one monotonically increasing series. Inc and Add
// are lock-free and allocation-free; handles are safe for concurrent use.
type Counter struct{ s *series }

// Inc adds 1.
func (c Counter) Inc() { c.s.count.Add(1) }

// Add adds n.
func (c Counter) Add(n uint64) { c.s.count.Add(n) }

// Value reads the current count.
func (c Counter) Value() uint64 { return c.s.count.Load() }

// Gauge is a handle to one instantaneous integer value (queue depth,
// in-flight weight). All methods are lock-free and allocation-free.
type Gauge struct{ s *series }

// Set stores v.
func (g Gauge) Set(v int64) { g.s.gauge.Store(v) }

// Add adds d (negative to decrease).
func (g Gauge) Add(d int64) { g.s.gauge.Add(d) }

// Inc adds 1.
func (g Gauge) Inc() { g.s.gauge.Add(1) }

// Dec subtracts 1.
func (g Gauge) Dec() { g.s.gauge.Add(-1) }

// Value reads the current value.
func (g Gauge) Value() int64 { return g.s.gauge.Load() }

// Histogram is a handle to one observation distribution over the family's
// fixed buckets. Observe is lock-free and allocation-free.
type Histogram struct{ s *series }

// Observe records v: the first bucket whose upper bound is >= v (values
// above every bound land only in the implicit +Inf bucket), the count,
// and the sum (a CAS loop over float bits — contended observes retry, the
// value is never torn).
func (h Histogram) Observe(v float64) {
	s := h.s
	if i := sort.SearchFloat64s(s.upper, v); i < len(s.upper) {
		s.buckets[i].Add(1)
	}
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads how many observations the histogram holds.
func (h Histogram) Count() uint64 { return h.s.count.Load() }

// Sum reads the observation sum.
func (h Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(name, help, TypeCounter, nil, nil).get(nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.register(name, help, TypeGauge, nil, nil).get(nil)}
}

// Histogram registers (or finds) an unlabeled histogram over buckets
// (upper bounds, strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	return Histogram{r.register(name, help, TypeHistogram, nil, buckets).get(nil)}
}

// CounterVec is a counter family with labels; resolve series with With.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, labels, nil)}
}

// With resolves the series for the given label values (creating it on
// first use). Resolution locks the family; hot paths resolve once and
// keep the returned handle.
func (v *CounterVec) With(vals ...string) Counter { return Counter{v.f.get(vals)} }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, TypeGauge, labels, nil)}
}

// With resolves the series for the given label values.
func (v *GaugeVec) With(vals ...string) Gauge { return Gauge{v.f.get(vals)} }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, labels, buckets)}
}

// With resolves the series for the given label values.
func (v *HistogramVec) With(vals ...string) Histogram { return Histogram{v.f.get(vals)} }

// LogBuckets builds a fixed log-scale bucket ladder: perDecade
// geometrically spaced upper bounds per factor-of-10, from min up to and
// including the first bound >= max. Each bound is computed independently
// (min * 10^(i/perDecade)), so there is no cumulative rounding drift and
// the same arguments always produce the identical ladder.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		panic("metrics: LogBuckets wants 0 < min < max and perDecade >= 1")
	}
	var out []float64
	for i := 0; ; i++ {
		b := min * math.Pow(10, float64(i)/float64(perDecade))
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}
