package service

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/glift"
)

// get fetches a raw body with an optional Accept header.
func (c *testClient) get(path, accept string) (*http.Response, string) {
	c.t.Helper()
	req, err := http.NewRequest("GET", c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsPrometheusExposition: after a real workload, /metrics defaults
// to the Prometheus text format and carries both service-derived and
// engine-derived series with plausible values; the JSON shape stays
// reachable via Accept and /metrics.json.
func TestMetricsPrometheusExposition(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 2, QueueDepth: 8})

	if code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source: violSrc, Policy: violPolicy(t),
	}); code != http.StatusConflict || st.Verdict != "violations" {
		t.Fatalf("violating job: code=%d verdict=%q", code, st.Verdict)
	}
	if code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source: cleanSrc, Policy: PolicyRequest{Name: "clean"},
	}); code != http.StatusOK || st.Verdict != "verified" {
		t.Fatalf("clean job: code=%d verdict=%q", code, st.Verdict)
	}

	resp, body := c.get("/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default /metrics Content-Type = %q, want Prometheus text", ct)
	}
	for _, series := range []string{
		// service-derived
		"# TYPE gliftd_http_request_duration_seconds histogram",
		`gliftd_http_request_duration_seconds_bucket{route="POST /jobs",code="200",le="+Inf"}`,
		"gliftd_jobs_submitted_total 2",
		`gliftd_jobs_completed_total{verdict="verified"} 1`,
		`gliftd_jobs_completed_total{verdict="violations"} 1`,
		"gliftd_workers 2",
		"gliftd_queue_depth 0",
		// engine-derived
		"# TYPE glift_engine_run_seconds histogram",
		`glift_engine_run_seconds_count{verdict="violations"} 1`,
		"glift_engine_cycles_total",
		"glift_engine_forks_total",
		"glift_engine_paths_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// The engine has no lane-packed speculation, so no lane series.
	if strings.Contains(body, "glift_engine_lane") {
		t.Errorf("/metrics exposes a glift_engine_lane series")
	}
	// Both completed runs released their table states.
	if !strings.Contains(body, "glift_engine_table_states 0") {
		t.Errorf("table-states gauge not drained after completion")
	}
	// An unknown path must not mint a new route label.
	c.get("/no/such/path", "")
	_, body = c.get("/metrics", "")
	if !strings.Contains(body, `route="GET other"`) || strings.Contains(body, "/no/such/path") {
		t.Errorf("unbounded route label: %q", body)
	}

	// The parallel-exploration scheduler series exist even when the engine
	// ran sequentially (zero-valued), so dashboards never see gaps.
	for _, series := range []string{
		"glift_engine_spec_workers_busy", "glift_engine_deque_depth",
		"glift_engine_steals_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing scheduler series %q", series)
		}
	}

	resp, body = c.get("/metrics", "application/json")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept: application/json got Content-Type %q", ct)
	}
	if !strings.Contains(body, `"jobs_submitted"`) {
		t.Errorf("negotiated JSON body missing legacy fields: %s", body)
	}
	resp, body2 := c.get("/metrics.json", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body2, `"jobs_submitted"`) {
		t.Errorf("/metrics.json: code=%d body=%s", resp.StatusCode, body2)
	}
}

// TestEngineProgressNonMonotonic: the delta feed must survive cumulative
// readings that go backwards. Registry counters panic on negative Add, and
// a parallel run's snapshots are not guaranteed monotone in every field
// (a busy or wall-clock reading can interleave against the previous one).
// The guard clamps such intervals instead of crashing the job's worker
// goroutine.
func TestEngineProgressNonMonotonic(t *testing.T) {
	m := newPromMetrics(1)
	ep := &engineProgress{m: m}

	grow := glift.Progress{
		Stats: glift.Stats{Cycles: 1000, Paths: 10, Forks: 5, WallNanos: 100},
		Sched: glift.SchedStats{Workers: 3, Busy: 2, DequeDepth: 4, Steals: 7, SpecUsed: 5, SpecWasted: 1},
	}
	ep.observe(grow)

	// A regressed snapshot: every cumulative field below its predecessor.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("non-monotonic progress snapshot panicked the exporter: %v", r)
		}
	}()
	ep.observe(glift.Progress{
		Stats: glift.Stats{Cycles: 900, Paths: 8, Forks: 3, WallNanos: 90},
		Sched: glift.SchedStats{},
	})
	// And a Done emission with zeroed scheduler state must drain the
	// gauges back to zero rather than pushing them negative forever.
	ep.observe(glift.Progress{
		Stats: glift.Stats{Cycles: 1100, Paths: 11, Forks: 6, WallNanos: 120},
		Done:  true,
	})
	if v := m.engSpecBusy.Value(); v != 0 {
		t.Errorf("spec-busy gauge = %v after Done, want 0", v)
	}
	if v := m.engDequeDepth.Value(); v != 0 {
		t.Errorf("deque-depth gauge = %v after Done, want 0", v)
	}
}

// TestEngineProgressParallelRun: fed a real 2-worker run, the scheduler
// counters end at the run's final totals — the Done snapshot carries the
// stopped pool's counters, so the last interval is not dropped — and the
// busy and deque gauges drain back to zero once the run completes.
func TestEngineProgressParallelRun(t *testing.T) {
	bt, err := bench.BuildUnmodified(bench.ByName("binSearch"))
	if err != nil {
		t.Fatal(err)
	}
	m := newPromMetrics(1)
	var done glift.Progress
	ep := &engineProgress{m: m, next: func(p glift.Progress) {
		if p.Done {
			done = p
		}
	}}
	if _, err := glift.Analyze(bt.Img, bt.Policy, &glift.Options{Workers: 2, Progress: ep.observe}); err != nil {
		t.Fatal(err)
	}
	sc := done.Sched
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"steals", m.engSteals.Value(), sc.Steals},
		{"spec-used", m.engSpecUsed.Value(), sc.SpecUsed},
		{"spec-wasted", m.engSpecWasted.Value(), sc.SpecWasted},
	} {
		if c.want == 0 || c.got != float64(c.want) {
			t.Errorf("%s counter = %v, want the run's final total %d (non-zero)", c.name, c.got, c.want)
		}
	}
	if v := m.engSpecBusy.Value(); v != 0 {
		t.Errorf("spec-busy gauge = %v after the run, want 0", v)
	}
	if v := m.engDequeDepth.Value(); v != 0 {
		t.Errorf("deque-depth gauge = %v after the run, want 0", v)
	}
}
