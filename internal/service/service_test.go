package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/target"
)

// cleanSrc verifies: no taint sources touched, trivial control flow.
const cleanSrc = `
start:  mov #0x0280, sp
        clr r10
loop:   jmp loop
`

// violSrc is the Figure 9 unmasked-store micro: a tainted-input-derived
// address escapes the tainted partition (C2), given the right policy.
const violSrc = `
start:  jmp tstart
tstart: mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
done:   jmp done
tend:   nop
`

// slowSrc runs essentially forever under a huge widening threshold: the
// outer counter r11 makes every outer iteration a fresh state, so precise
// unrolling never converges — the job ends only by budget or cancellation.
const slowSrc = `
start:  mov #0x0280, sp
        clr r11
outer:  mov #0xffff, r10
lp:     dec r10
        jnz lp
        inc r11
        jmp outer
`

// violPolicy labels violSrc: P1 tainted input, tstart..tend tainted code,
// 0x0400..0x0800 the tainted data partition.
func violPolicy(t *testing.T) PolicyRequest {
	t.Helper()
	img, err := asm.AssembleSource(violSrc)
	if err != nil {
		t.Fatal(err)
	}
	return PolicyRequest{
		Name:           "viol",
		TaintedInPorts: []int{0},
		TaintedCode:    []RangeRequest{{Lo: img.MustSymbol("tstart"), Hi: img.MustSymbol("tend")}},
		TaintedData:    []RangeRequest{{Lo: 0x0400, Hi: 0x0800}},
	}
}

func slowOptions() OptionsRequest {
	return OptionsRequest{
		MaxCycles:     1 << 34,
		MaxPathCycles: 1 << 34,
		WidenAfter:    1 << 30,
	}
}

type testClient struct {
	t   *testing.T
	srv *httptest.Server
	s   *Server
}

func newTestClient(t *testing.T, cfg Config) (*testClient, *Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return &testClient{t: t, srv: hs, s: s}, s
}

// close shuts the frontend and the service down early; tests that model a
// process restart call this before reopening the same store directory.
// Safe with the registered Cleanup — both closes are idempotent.
func (c *testClient) close() {
	c.srv.Close()
	c.s.Close()
}

func (c *testClient) do(method, path string, body any) (int, JobStatusJSON) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return resp.StatusCode, st
}

func (c *testClient) metrics() MetricsJSON {
	c.t.Helper()
	// The default /metrics representation is Prometheus text now; the JSON
	// shape stays reachable through content negotiation (and /metrics.json).
	req, err := http.NewRequest("GET", c.srv.URL+"/metrics", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

// awaitDone polls a job until it reaches the done state.
func (c *testClient) awaitDone(id string, timeout time.Duration) JobStatusJSON {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		_, st := c.do("GET", "/jobs/"+id, nil)
		if st.State == stateDone {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Fatalf("job %s did not finish within %s", id, timeout)
	return JobStatusJSON{}
}

// TestServiceMixedWorkload drives the full loop: concurrent submissions of
// a mix of verifying and violating jobs complete with correct verdicts and
// HTTP statuses, an identical resubmission is a recorded cache hit that
// skips engine execution, and /metrics agrees with the workload.
func TestServiceMixedWorkload(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 4, QueueDepth: 32})
	vp := violPolicy(t)

	const perKind = 3
	type result struct {
		code int
		st   JobStatusJSON
	}
	results := make([]result, 2*perKind)
	var wg sync.WaitGroup
	for i := 0; i < perKind; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			// Distinct max_cycles give each clean job its own content key,
			// making the expected engine-run count deterministic.
			code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
				Source:  cleanSrc,
				Policy:  PolicyRequest{Name: "clean"},
				Options: OptionsRequest{MaxCycles: 4_000_000 + uint64(i)},
			})
			results[i] = result{code, st}
		}(i)
		go func(i int) {
			defer wg.Done()
			code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
				Source:  violSrc,
				Policy:  vp,
				Options: OptionsRequest{MaxCycles: 4_000_000 + uint64(i)},
			})
			results[perKind+i] = result{code, st}
		}(i)
	}
	wg.Wait()

	for i := 0; i < perKind; i++ {
		r := results[i]
		if r.code != http.StatusOK || r.st.Verdict != "verified" || !r.st.Report.Secure {
			t.Errorf("clean job %d: code=%d verdict=%q", i, r.code, r.st.Verdict)
		}
	}
	for i := 0; i < perKind; i++ {
		r := results[perKind+i]
		if r.code != http.StatusConflict || r.st.Verdict != "violations" {
			t.Errorf("violating job %d: code=%d verdict=%q", i, r.code, r.st.Verdict)
			continue
		}
		found := false
		for _, v := range r.st.Report.Violations {
			if v.Kind == "C2-memory-escape" {
				found = true
			}
		}
		if !found {
			t.Errorf("violating job %d: no C2 violation in %+v", i, r.st.Report.Violations)
		}
	}

	m := c.metrics()
	if m.EngineRuns != 2*perKind || m.CacheMisses != 2*perKind || m.CacheHits != 0 {
		t.Errorf("after mixed phase: runs=%d misses=%d hits=%d, want %d/%d/0",
			m.EngineRuns, m.CacheMisses, m.CacheHits, 2*perKind, 2*perKind)
	}

	// Byte-identical resubmission: served from the cache, engine not re-run.
	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source:  cleanSrc,
		Policy:  PolicyRequest{Name: "clean"},
		Options: OptionsRequest{MaxCycles: 4_000_000},
	})
	if code != http.StatusOK || !st.CacheHit || st.Verdict != "verified" {
		t.Errorf("resubmission: code=%d cache_hit=%v verdict=%q", code, st.CacheHit, st.Verdict)
	}

	m = c.metrics()
	if m.CacheHits != 1 || m.EngineRuns != 2*perKind {
		t.Errorf("cache hit must skip the engine: hits=%d runs=%d", m.CacheHits, m.EngineRuns)
	}
	if m.JobsSubmitted != 2*perKind+1 || m.JobsCompleted != 2*perKind {
		t.Errorf("submitted=%d completed=%d", m.JobsSubmitted, m.JobsCompleted)
	}
	if m.JobsByVerdict["verified"] != perKind || m.JobsByVerdict["violations"] != perKind {
		t.Errorf("jobs_by_verdict = %v", m.JobsByVerdict)
	}
	if m.CyclesSimulated == 0 {
		t.Error("cycles_simulated_total should be non-zero")
	}
	if m.CacheEntries != 2*perKind {
		t.Errorf("cache_entries = %d, want %d", m.CacheEntries, 2*perKind)
	}
	if m.QueueDepth != 0 || m.BusyWorkers != 0 {
		t.Errorf("idle service shows queue_depth=%d busy=%d", m.QueueDepth, m.BusyWorkers)
	}
}

// TestServiceCoalescing: two simultaneous identical submissions run the
// engine exactly once — they share one job record.
func TestServiceCoalescing(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})

	// Occupy the single worker so the identical pair stays queued together.
	_, blocker := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "blocker"}, Options: slowOptions(),
	})
	if blocker.ID == "" {
		t.Fatal("no blocker job id")
	}

	ids := make([]string, 2)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, st := c.do("POST", "/jobs", &JobRequest{
				Source: cleanSrc, Policy: PolicyRequest{Name: "dup"},
			})
			if code != http.StatusAccepted {
				t.Errorf("duplicate submission %d: code=%d", i, code)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("identical submissions got distinct jobs: %q vs %q", ids[0], ids[1])
	}
	m := c.metrics()
	if m.JobsCoalesced != 1 {
		t.Errorf("jobs_coalesced = %d, want 1", m.JobsCoalesced)
	}

	// Release the worker and let the coalesced job run.
	if code, _ := c.do("DELETE", "/jobs/"+blocker.ID, nil); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cancel blocker: code=%d", code)
	}
	st := c.awaitDone(ids[0], 2*time.Minute)
	if st.Verdict != "verified" {
		t.Errorf("coalesced job verdict = %q", st.Verdict)
	}
	c.awaitDone(blocker.ID, 2*time.Minute)

	m = c.metrics()
	if m.EngineRuns != 2 { // blocker + one run for the coalesced pair
		t.Errorf("engine_runs = %d, want 2", m.EngineRuns)
	}
	// The cancelled blocker's Incomplete verdict must not be cached; only
	// the completed run is.
	if m.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1 (incomplete results are uncacheable)", m.CacheEntries)
	}
}

// TestServiceCancel: DELETE on a long-running job aborts it through the
// engine's cancellation path with the fail-closed Incomplete verdict.
func TestServiceCancel(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})

	_, sub := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "slow"}, Options: slowOptions(),
	})
	// Wait until the exploration has demonstrably progressed so the cancel
	// exercises the mid-run path, not the queued path.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, st := c.do("GET", "/jobs/"+sub.ID, nil)
		if st.State == stateRunning && st.Progress.Cycles > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if code, _ := c.do("DELETE", "/jobs/"+sub.ID, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: code=%d", code)
	}
	st := c.awaitDone(sub.ID, 2*time.Minute)
	if st.Verdict != "incomplete" || !st.Cancelled {
		t.Fatalf("cancelled job: verdict=%q cancelled=%v", st.Verdict, st.Cancelled)
	}
	found := false
	for _, v := range st.Report.Violations {
		if v.Kind == "analysis-incomplete" && strings.Contains(v.Detail, "cancelled") {
			found = true
		}
	}
	if !found {
		t.Errorf("no cancellation marker in report: %+v", st.Report.Violations)
	}
	// A finished job maps its verdict onto the HTTP status.
	code, _ := c.do("GET", "/jobs/"+sub.ID, nil)
	if code != http.StatusGatewayTimeout {
		t.Errorf("GET after cancel: code=%d, want 504", code)
	}
	m := c.metrics()
	if m.JobsByVerdict["incomplete"] != 1 || m.CancelRequests != 1 {
		t.Errorf("metrics after cancel: %+v", m)
	}
}

// TestServiceIHexEquivalence: an Intel-hex submission of the same program
// content-addresses identically to its assembly-source submission.
func TestServiceIHexEquivalence(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 2, QueueDepth: 8})

	code, _ := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source: cleanSrc, Policy: PolicyRequest{Name: "src"},
	})
	if code != http.StatusOK {
		t.Fatalf("source submission: code=%d", code)
	}

	img, err := asm.AssembleSource(cleanSrc)
	if err != nil {
		t.Fatal(err)
	}
	var hexBuf bytes.Buffer
	if err := asm.WriteIHex(&hexBuf, img); err != nil {
		t.Fatal(err)
	}
	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		IHex: hexBuf.String(), Entry: img.Entry, Policy: PolicyRequest{Name: "hex"},
	})
	if code != http.StatusOK || !st.CacheHit {
		t.Errorf("equivalent ihex submission should be a cache hit: code=%d hit=%v", code, st.CacheHit)
	}
}

// TestServiceBadRequests covers the 400/404 surface (the CLI exit-code-2
// analogue).
func TestServiceBadRequests(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 4})

	post := func(body string) int {
		resp, err := c.srv.Client().Post(c.srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: code=%d", code)
	}
	if code := post(`{"policy":{"name":"p"}}`); code != http.StatusBadRequest {
		t.Errorf("missing program: code=%d", code)
	}
	// options.spec_lanes had its release of being accepted and ignored; it
	// is now an unknown field like any other.
	if code := post(`{"source":"done: jmp done","policy":{"name":"p"},"options":{"spec_lanes":8}}`); code != http.StatusBadRequest {
		t.Errorf("removed options.spec_lanes: code=%d", code)
	}
	if code := post(`{"source":"bogus instruction here","policy":{"name":"p"}}`); code != http.StatusBadRequest {
		t.Errorf("unassemblable source: code=%d", code)
	}
	b, _ := json.Marshal(&JobRequest{
		Source: cleanSrc,
		Policy: PolicyRequest{Name: "p", TaintedData: []RangeRequest{{Lo: 0x0800, Hi: 0x0400}}},
	})
	if code := post(string(b)); code != http.StatusBadRequest {
		t.Errorf("invalid policy: code=%d", code)
	}
	if code, _ := c.do("GET", "/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: code=%d", code)
	}
	if code, _ := c.do("DELETE", "/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job delete: code=%d", code)
	}
	m := c.metrics()
	if m.JobsSubmitted != 0 {
		t.Errorf("rejected requests must not count as submissions: %d", m.JobsSubmitted)
	}
}

// TestBackendIgnored: options.backend stays decodable for one release after
// the daemon stopped selecting backends. A job naming any backend, even one
// that no longer exists, is accepted, shares the job key of the same job
// without it (so it is answered from that job's cache entry), and gets the
// same report bytes.
func TestBackendIgnored(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 4})
	req := &JobRequest{Source: violSrc, Policy: violPolicy(t)}
	code, plain := c.do("POST", "/jobs?wait=1", req)
	if code != http.StatusConflict || plain.Verdict != "violations" {
		t.Fatalf("job without backend: code=%d verdict=%q", code, plain.Verdict)
	}
	want, _ := json.Marshal(plain.Report)
	for _, name := range []string{"interp", "bitslice"} {
		req.Options.Backend = name
		code, named := c.do("POST", "/jobs?wait=1", req)
		if code != http.StatusConflict {
			t.Fatalf("job with backend %s: code=%d, want 409", name, code)
		}
		if named.Key != plain.Key || !named.CacheHit {
			t.Errorf("backend %s changed the job: key %s vs %s, cache_hit %v", name, named.Key, plain.Key, named.CacheHit)
		}
		if got, _ := json.Marshal(named.Report); string(got) != string(want) {
			t.Errorf("report with backend %s differs:\n%s\nvs\n%s", name, got, want)
		}
	}
	if m := c.metrics(); m.EngineRuns != 1 {
		t.Errorf("engine_runs = %d, want 1", m.EngineRuns)
	}
}

// TestJobKeySensitivity: the content address is stable for identical inputs
// and sensitive to every semantic component — but not to display names.
func TestJobKeySensitivity(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	img, err := asm.AssembleSource(cleanSrc)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := asm.AssembleSource(strings.Replace(cleanSrc, "r10", "r11", 1))
	if err != nil {
		t.Fatal(err)
	}
	pol := &glift.Policy{Name: "a", TaintedInPorts: []int{0}}
	opt := &glift.Options{}

	base := s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: pol}, opt, 0)
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: pol}, opt, 0) != base {
		t.Error("key not deterministic")
	}
	renamed := *pol
	renamed.Name = "b"
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: &renamed}, opt, 0) != base {
		t.Error("policy display name must not change the key")
	}
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img2, pol: pol}, opt, 0) == base {
		t.Error("image change must change the key")
	}
	repol := &glift.Policy{Name: "a", TaintedInPorts: []int{1}}
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: repol}, opt, 0) == base {
		t.Error("policy change must change the key")
	}
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: pol}, &glift.Options{MaxCycles: 1000}, 0) == base {
		t.Error("options change must change the key")
	}
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: pol}, opt, time.Second) == base {
		t.Error("deadline change must change the key")
	}
	// Defaults spelled out explicitly hash like omitted defaults.
	n := opt.Normalized()
	if s.jobKey(&analysisKind{tgt: target.Default(), img: img, pol: pol}, &glift.Options{MaxCycles: n.MaxCycles, MaxPathCycles: n.MaxPathCycles,
		WidenAfter: n.WidenAfter, SoftMemBytes: n.SoftMemBytes, HardMemBytes: n.HardMemBytes}, 0) != base {
		t.Error("explicit defaults must hash like omitted defaults")
	}
}

// TestJobKeysPinned pins the content address of one submission per key
// shape. Every store record is found by its key, so a key that moves
// strands the records written under it; a change that alters a key on
// purpose regenerates this table and says so.
func TestJobKeysPinned(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 2, QueueDepth: 32})
	tuned := repairReq()
	tuned.Repair.Rounds = 3
	tuned.Repair.Partition = "0x0400:0x0400"
	tuned.Options = OptionsRequest{WidenAfter: 64}
	cases := []struct {
		name string
		req  *JobRequest
		key  string
	}{
		{"analysis", &JobRequest{Source: cleanSrc, Policy: PolicyRequest{Name: "p", TaintedInPorts: []int{0}}},
			"260d98d27ca9681518fbe888ac6a3f6a2bdcb44ec5b984d7655af262633b2350"},
		{"analysis with options", &JobRequest{Source: cleanSrc, Policy: PolicyRequest{Name: "p", TaintedInPorts: []int{0}},
			Options: OptionsRequest{MaxCycles: 5000, DeadlineMS: 60000, Workers: 2}},
			"3d1e0c79501c8f05c8105f04eac02c7b67fa4c4e49dff602c9be7528468126d8"},
		{"analysis with tainted code", &JobRequest{Source: violSrc, Policy: violPolicy(t)},
			"07eb2d365aa00eaaa4f25bf8bf04a877daa4584ece9d93fe1b629ad3ae1a28a9"},
		{"rv32 analysis", &JobRequest{Target: "rv32", Source: "start:  li x5, 1\ndone:   j done\n", Policy: PolicyRequest{Name: "w"}},
			"ac9cf8aa275750c7e3f59c56644957181b81776db5b09b550fea33fb74e44cf7"},
		{"repair", repairReq(),
			"2cce4f416348621d4d4679a7ad253e72a1e16f4d71780b898ea7ab4cf241f6fb"},
		{"repair with knobs", tuned,
			"f9c5e98778cf25dadcd8ce9f3ca01ec6f13772e5dfb109d641c7b371fda711cd"},
	}
	for _, tc := range cases {
		code, st := c.do("POST", "/jobs", tc.req)
		if code >= 400 && code != http.StatusConflict {
			t.Errorf("%s: HTTP %d", tc.name, code)
			continue
		}
		if st.Key != tc.key {
			t.Errorf("%s: key %s, want %s", tc.name, st.Key, tc.key)
		}
	}
}

// TestResultCacheEviction: the cache is bounded with FIFO eviction.
func TestResultCacheEviction(t *testing.T) {
	cache := newResultCache(2)
	r := func(name string) *cachedResult { return &cachedResult{rep: &glift.Report{Policy: name}} }
	cache.put("a", r("a"))
	cache.put("b", r("b"))
	cache.put("a", r("a2")) // overwrite does not grow or reorder
	if cache.len() != 2 {
		t.Fatalf("len = %d", cache.len())
	}
	cache.put("c", r("c")) // evicts a (oldest)
	if _, ok := cache.get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := cache.get("b"); !ok {
		t.Error("b should survive")
	}
	if _, ok := cache.get("c"); !ok {
		t.Error("c should be present")
	}
	if cache.len() != 2 {
		t.Errorf("len = %d after eviction", cache.len())
	}
}

// TestImageFromIHex: round-trip through the hex loader reproduces the
// assembled image's segments and default entry point.
func TestImageFromIHex(t *testing.T) {
	src := fmt.Sprintf(".org %#x\nstart: mov #1, r10\n.org %#x\nother: add r10, r11\n", 0xf000, 0xf100)
	img, err := asm.AssembleSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := asm.WriteIHex(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := imageFromIHex(buf.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(img.Segments) {
		t.Fatalf("segments = %d, want %d", len(got.Segments), len(img.Segments))
	}
	for i, seg := range img.Segments {
		if got.Segments[i].Addr != seg.Addr || len(got.Segments[i].Words) != len(seg.Words) {
			t.Errorf("segment %d mismatch: %+v vs %+v", i, got.Segments[i], seg)
		}
		for k, w := range seg.Words {
			if got.Segments[i].Words[k] != w {
				t.Errorf("segment %d word %d = %#x, want %#x", i, k, got.Segments[i].Words[k], w)
			}
		}
	}
	if got.Entry != 0xf000 {
		t.Errorf("default entry = %#x, want 0xf000", got.Entry)
	}
	if _, err := imageFromIHex("", 0); err == nil {
		t.Error("empty ihex should fail")
	}
	if _, err := imageFromIHex(":garbage", 0); err == nil {
		t.Error("bad ihex should fail")
	}
}
