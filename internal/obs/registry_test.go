package obs

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRegistry builds a registry with every metric shape and fixed,
// deterministic values, so the exposition can be compared byte-for-byte.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	c.Add(41)
	c.Inc()
	cv := r.CounterVec("test_jobs_total", "Jobs by verdict.", "verdict")
	cv.With("verified").Add(3)
	cv.With("violations").Add(2)
	cv.With(`weird"label\n`).Inc() // exercises label escaping
	g := r.Gauge("test_queue_depth", "Jobs waiting.")
	g.Set(7)
	g.Add(-2)
	gv := r.GaugeVec("test_pool_size", "Pool size by kind.", "kind")
	gv.With("worker").Set(4)
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	hv := r.HistogramVec("test_run_seconds", "Run time by verdict.", []float64{1, 60}, "verdict")
	hv.With("verified").Observe(0.25)
	hv.With("verified").Observe(90)
	return r
}

// TestWritePrometheusGolden compares the full text exposition against the
// checked-in golden file (regenerate with go test ./internal/obs -update).
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
	// Determinism: a second registry built the same way writes the same bytes.
	var buf2 bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two identical registries produced different expositions")
	}
}

// parseExposition picks every sample line (name{labels} value) apart; it is
// deliberately independent of the writer's internals.
func parseExposition(t *testing.T, text string) []struct {
	name, labels string
	value        float64
} {
	t.Helper()
	var out []struct {
		name, labels string
		value        float64
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		out = append(out, struct {
			name, labels string
			value        float64
		}{name, labels, v})
	}
	return out
}

// TestHistogramBucketsCumulative: for every histogram series, bucket counts
// are non-decreasing in le order and the +Inf bucket equals _count.
func TestHistogramBucketsCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())

	// Buckets are written in le order per child, so grouping by the labels
	// minus le while preserving order is enough to check monotonicity.
	type key struct{ name, labels string }
	lastBucket := map[key]float64{}
	infBucket := map[key]float64{}
	counts := map[key]float64{}
	stripLE := func(labels string) string {
		i := strings.Index(labels, "le=\"")
		if i < 0 {
			return labels
		}
		j := strings.IndexByte(labels[i+4:], '"')
		rest := labels[:i] + labels[i+4+j+1:]
		rest = strings.Replace(rest, ",}", "}", 1) // le was the last label
		if rest == "{}" {
			rest = ""
		}
		return rest
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			k := key{strings.TrimSuffix(s.name, "_bucket"), stripLE(s.labels)}
			if prev, ok := lastBucket[k]; ok && s.value < prev {
				t.Errorf("%s%s: bucket count %v decreased from %v", s.name, s.labels, s.value, prev)
			}
			lastBucket[k] = s.value
			if strings.Contains(s.labels, `le="+Inf"`) {
				infBucket[k] = s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			counts[key{strings.TrimSuffix(s.name, "_count"), s.labels}] = s.value
		}
	}
	if len(infBucket) == 0 {
		t.Fatal("no +Inf buckets found")
	}
	for k, inf := range infBucket {
		if c, ok := counts[k]; !ok || c != inf {
			t.Errorf("%s%s: +Inf bucket %v != _count %v", k.name, k.labels, inf, counts[k])
		}
	}
}

// TestRegistryConcurrency hammers every metric type from many goroutines
// while scraping concurrently; run under -race this is the data-race proof,
// and the final counts must be exact (no lost updates).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	cv := r.CounterVec("ccv_total", "cv", "l")
	g := r.Gauge("cg", "g")
	h := r.Histogram("ch_seconds", "h", []float64{1, 10})

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprintf("w%d", w%3)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cv.With(lbl).Add(2)
				g.Add(1)
				g.SetMax(float64(i))
				h.Observe(float64(i % 20))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scrapes while writers run
		for {
			select {
			case <-done:
				return
			default:
				if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter lost updates: got %v want %d", got, total)
	}
	if got := g.Value(); got < float64(perWorker-1) {
		t.Errorf("gauge SetMax went backwards: %v", got)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram lost observations: got %d want %d", got, total)
	}
	var sum float64
	for w := 0; w < 3; w++ {
		sum += cv.With(fmt.Sprintf("w%d", w)).Value()
	}
	if sum != 2*total {
		t.Errorf("counter vec lost updates: got %v want %d", sum, 2*total)
	}
}

// TestReRegistrationAndMismatch: re-registering an identical schema returns
// the same series; a conflicting schema panics loudly instead of silently
// splitting the family.
func TestReRegistrationAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help")
	b := r.Counter("dup_total", "help")
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registration did not return the same series")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("dup_total", "help")
}

// TestVecReadsCreateNoSeries: CounterVec.Values and HistogramVec.Count read
// only the series updates created; reading an empty family adds no line to
// the exposition.
func TestVecReadsCreateNoSeries(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("reads_jobs_total", "Jobs by verdict.", "verdict")
	hv := r.HistogramVec("reads_run_seconds", "Run time by verdict.", []float64{1}, "verdict")
	if v := cv.Values(); len(v) != 0 {
		t.Errorf("empty counter family Values = %v", v)
	}
	if n := hv.Count(); n != 0 {
		t.Errorf("empty histogram family Count = %d", n)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "{") {
		t.Errorf("reading empty families created series:\n%s", buf.String())
	}

	cv.With("verified").Add(3)
	cv.With("violations").Inc()
	hv.With("verified").Observe(0.5)
	hv.With("violations").Observe(2)
	hv.With("violations").Observe(3)
	if v := cv.Values(); len(v) != 2 || v["verified"] != 3 || v["violations"] != 1 {
		t.Errorf("Values = %v, want verified 3 and violations 1", v)
	}
	if n := hv.Count(); n != 3 {
		t.Errorf("Count = %d, want 3 across both series", n)
	}
}
