// Package telemetry is the runtime observability plane: a zero-dependency
// metrics registry (counters, gauges, fixed-bucket histograms), a
// Prometheus text-exposition endpoint with pprof and health mounts, the
// construction of the log/slog event log the daemons write, and the
// adapter that records core.Observer's freezing-state events.
//
// Design constraints, in order:
//
//   - Record paths must be safe on the APF hot path: every Inc/Add/Set/
//     Observe is a handful of atomic operations, allocates nothing, and
//     takes no locks. Registration (Counter/Gauge/Histogram) takes a
//     mutex and may allocate — it happens once, at setup.
//   - Everything is nil-safe. A nil *Registry hands out nil metric
//     handles, and every method on a nil handle is a no-op, so library
//     code instruments unconditionally and stays silent (and nearly free:
//     one nil check) unless a registry is injected. There is no global
//     state to configure or leak.
//   - Exposition is Prometheus text format version 0.0.4 — counters and
//     gauges one sample line each, histograms as cumulative buckets with
//     `le` labels ending in `+Inf` plus `_sum`/`_count` — so any scraper
//     or `curl | grep` works against /metrics unchanged.
//
// Metric families are identified by name; children of one family differ
// by their label sets, fixed at registration (there is no dynamic label
// lookup on the record path — callers hold child handles). Registering
// the same (name, labels) twice returns the same handle, so independent
// components may share a series without coordinating.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates family types within a registry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String names the kind in exposition TYPE lines and error messages.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("metricKind(%d)", uint8(k))
}

// child is one labeled series of a family. labels is the pre-rendered
// `key="value",...` list (empty for an unlabeled series); the concrete
// metric is exactly one of the three pointers.
type child struct {
	labels string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is one named metric with its HELP/TYPE metadata and children.
type family struct {
	name string
	help string
	kind metricKind

	children []*child
	byLabels map[string]*child
}

// Registry holds metric families in registration order. All methods are
// safe for concurrent use; all methods on a nil *Registry are no-ops that
// return nil handles.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns (creating if needed) the named family, panicking on a
// kind or help conflict — mixing types under one name is a programming
// error that would corrupt the exposition.
func (r *Registry) family(name, help string, kind metricKind) *family {
	if err := checkName(name); err != nil {
		panic(err.Error())
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*child)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// Counter registers (or returns) the counter name with the given label
// pairs (alternating key, value). A nil registry returns a nil handle,
// whose methods are no-ops.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	labels := renderLabels(labelPairs)
	if c, ok := f.byLabels[labels]; ok {
		return c.ctr
	}
	c := &child{labels: labels, ctr: &Counter{}}
	f.byLabels[labels] = c
	f.children = append(f.children, c)
	return c.ctr
}

// Gauge registers (or returns) the gauge name with the given label pairs.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	labels := renderLabels(labelPairs)
	if c, ok := f.byLabels[labels]; ok {
		return c.gauge
	}
	c := &child{labels: labels, gauge: &Gauge{}}
	f.byLabels[labels] = c
	f.children = append(f.children, c)
	return c.gauge
}

// Histogram registers (or returns) the histogram name over the given
// bucket upper bounds (ascending; the +Inf bucket is implicit) with the
// given label pairs. Pass nil buckets for DefBuckets. Re-registering an
// existing series with different buckets panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: %s buckets not ascending: %v", name, buckets))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	labels := renderLabels(labelPairs)
	if c, ok := f.byLabels[labels]; ok {
		if len(c.hist.bounds) != len(buckets) {
			panic(fmt.Sprintf("telemetry: %s re-registered with different buckets", name))
		}
		for i := range buckets {
			if c.hist.bounds[i] != buckets[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with different buckets", name))
			}
		}
		return c.hist
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
	c := &child{labels: labels, hist: h}
	f.byLabels[labels] = c
	f.children = append(f.children, c)
	return c.hist
}

// DefBuckets is the default latency bucket layout (seconds): sub-ms
// through minute scale, matching round/WAL/broadcast timings.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// checkName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("telemetry: empty metric name")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return fmt.Errorf("telemetry: invalid metric name %q", name)
		}
	}
	return nil
}

// renderLabels builds the canonical `k="v",...` form of alternating
// key/value pairs, escaping values per the exposition format. Keys keep
// caller order (the registration site fixes it once).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", pairs))
	}
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if err := checkName(pairs[i]); err != nil {
			panic(fmt.Sprintf("telemetry: invalid label key %q", pairs[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline, the three
// characters the text exposition format requires escaped in label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds set at
// registration, +Inf implicit) and tracks their sum. A nil *Histogram is
// a no-op. Buckets are stored non-cumulatively and accumulated only at
// exposition time, so Observe touches exactly one bucket counter.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound ≥ v is v's bucket (le semantics); past the end is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}
