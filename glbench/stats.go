package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A p90 therefore needs at least 100 samples and a p99 at least 1,000; with
// fewer, the tail is not reported at all rather than read off a handful of
// values.
const minTail = 10

// nearestRank returns the nearest-rank p-quantile of sorted (0 < p <= 1):
// the value at 1-based rank ceil(p*n), together with that rank.
func nearestRank(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1], r
}

// median is the nearest-rank median; it is reported at any sample count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := nearestRank(sortedCopy(xs), 0.5)
	return v
}

// tail is the nearest-rank p-quantile for a tail (p > 0.5), reported only
// when at least minTail samples lie strictly beyond its rank.
func tail(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v, r := nearestRank(sortedCopy(xs), p)
	return v, len(xs)-r >= minTail
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed call at a layer boundary. Times are offsets from the
// recorder's base; parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// spans records spans in memory for one traced phase; it is safe for
// concurrent use. A nil *spans records nothing, so untraced phases pay one
// nil check per call site.
type spans struct {
	base time.Time
	mu   sync.Mutex
	all  []span
}

func newSpans() *spans { return &spans{base: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *spans) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, span{name: name, parent: parent, start: time.Since(r.base), end: -1})
	return len(r.all) - 1
}

// end closes span id.
func (r *spans) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all[id].end = time.Since(r.base)
}

// since is the recorder offset of now.
func (r *spans) since() time.Duration { return time.Since(r.base) }

// get returns span id.
func (r *spans) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all[id]
}

// add records an already-measured interval, for spans rebuilt from the
// program's own timestamps (engine path events).
func (r *spans) add(name string, parent int, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, span{name: name, parent: parent, start: start, end: end})
}

// durations returns the durations, in seconds, of every closed span named name.
func (r *spans) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.all {
		if s.name == name && s.end >= 0 {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, keyed by span index, the self time in seconds of every
// closed span named name: its duration minus the part its children cover.
func (r *spans) selfTimes(name string) map[int]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.all {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[int]float64{}
	for i, s := range r.all {
		if s.name == name && s.end >= 0 {
			out[i] = selfTime(s, children[i]).Seconds()
		}
	}
	return out
}

// selfTime is parent's duration minus the union of its children's
// intervals, each clipped to the parent. Overlapping children (concurrent
// work under one parent) are counted once.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := time.Duration(0)
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}
