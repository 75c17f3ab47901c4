package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType discriminates the three supported metric families.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

var typeNames = [...]string{"counter", "gauge", "histogram"}

// DefBuckets are the default request-latency histogram buckets in seconds
// (the conventional Prometheus spread from 1ms to 10s).
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// RunBuckets suit whole-analysis durations: engine runs range from
// milliseconds (cache-warm micro-benchmarks) to many minutes.
var RunBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; registering
// an existing name returns the existing family (a schema mismatch panics —
// series names are compile-time constants, so a mismatch is a programming
// error, not an operational one).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// family is one named metric family: its schema plus a child per distinct
// label-value combination.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu       sync.RWMutex
	children map[string]*child
}

// child carries the numeric state of one series. Counter and gauge values
// live in valBits (float64 bits); histograms additionally keep per-bucket
// (non-cumulative) counts, the observation count and the sum. Everything
// is atomic so updates never take a lock.
type child struct {
	labelVals    []string
	valBits      atomic.Uint64
	bucketCounts []atomic.Uint64
	count        atomic.Uint64
	sumBits      atomic.Uint64
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (r *Registry) family(name, help string, typ metricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	if typ == typeHistogram {
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
		for i := 1; i < len(f.buckets); i++ {
			if f.buckets[i] == f.buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q has duplicate bucket %v", name, f.buckets[i]))
			}
		}
	}
	r.families[name] = f
	return f
}

// child returns (creating on first use) the series for one label-value
// combination. The fast path is a read-locked map hit.
func (f *family) child(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x1f")
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelVals: append([]string(nil), vals...)}
	if f.typ == typeHistogram {
		c.bucketCounts = make([]atomic.Uint64, len(f.buckets))
	}
	f.children[key] = c
	return c
}

// Counter is a monotonically increasing series.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (panics when negative: counters are monotonic by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decremented")
	}
	addFloat(&c.c.valBits, v)
}

// Value returns the current value (tests and JSON mirrors).
func (c *Counter) Value() float64 { return math.Float64frombits(c.c.valBits.Load()) }

// Gauge is a series that can go up and down.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.c.valBits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) { addFloat(&g.c.valBits, v) }

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark; atomic against concurrent SetMax calls).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.c.valBits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.c.valBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.valBits.Load()) }

// Histogram is a fixed-bucket distribution series.
type Histogram struct {
	f *family
	c *child
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.c.bucketCounts[i].Add(1)
			break
		}
	}
	h.c.count.Add(1)
	addFloat(&h.c.sumBits, v)
}

// Count returns the number of observations (tests).
func (h *Histogram) Count() uint64 { return h.c.count.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the series for the given label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{c: v.f.child(labelValues)}
}

// Values returns the value of every series created so far, keyed by its
// label values joined with U+001F (the label value itself in a one-label
// family). Unlike With it creates no series, so reading a family never adds
// a line to the exposition.
func (v *CounterVec) Values() map[string]float64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	out := make(map[string]float64, len(v.f.children))
	for k, c := range v.f.children {
		out[k] = math.Float64frombits(c.valBits.Load())
	}
	return out
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{c: v.f.child(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, c: v.f.child(labelValues)}
}

// Count returns the number of observations across every series of the
// family. It creates no series.
func (v *HistogramVec) Count() uint64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	var n uint64
	for _, c := range v.f.children {
		n += c.count.Load()
	}
	return n
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return &Counter{c: f.child(nil)}
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil, nil)
	return &Gauge{c: f.child(nil)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, buckets)
	return &Histogram{f: f, c: f.child(nil)}
}

// HistogramVec registers (or fetches) a labeled fixed-bucket histogram
// family. Every child shares the family's buckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, buckets)}
}
