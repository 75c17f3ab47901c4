package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/target"
)

// repairReq builds a repair-mode submission over violSrc: the Figure 9
// program whose one escaping store the loop masks in round 1. Repair mode
// takes its tainted-code range symbolically (re-resolved per round), so the
// policy carries only the ports and the data partition.
func repairReq() *JobRequest {
	return &JobRequest{
		Source: violSrc,
		Mode:   "repair",
		Policy: PolicyRequest{
			Name:           "viol",
			TaintedInPorts: []int{0},
			TaintedData:    []RangeRequest{{Lo: 0x0400, Hi: 0x0800}},
		},
		Repair: &RepairRequest{TaintedCode: []string{"tstart:tend"}},
	}
}

// rawRepair submits with wait and returns the status plus the repair
// payload's exact bytes as served — the byte-identity unit for cache and
// store checks (mirroring persistence_test's rawReport).
func (c *testClient) rawRepair(body any) (int, json.RawMessage, JobStatusJSON) {
	c.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Post(c.srv.URL+"/jobs?wait=1", "application/json", bytes.NewReader(b))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	var st JobStatusJSON
	if err := json.Unmarshal(data, &st); err != nil {
		c.t.Fatalf("decoding response: %v", err)
	}
	var shell struct {
		Repair json.RawMessage `json:"repair"`
	}
	if err := json.Unmarshal(data, &shell); err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, shell.Repair, st
}

// TestRepairJobHTTP: a repair job over HTTP returns patched assembly whose
// re-verification verdict is verified, with per-round counts and the
// targeted-vs-always-on overhead comparison — the tentpole acceptance path.
func TestRepairJobHTTP(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	code, st := c.do("POST", "/jobs?wait=1", repairReq())
	if code != http.StatusOK {
		t.Fatalf("repair submit: HTTP %d (want 200 verified)", code)
	}
	if st.Mode != modeRepair {
		t.Errorf("mode = %q, want repair", st.Mode)
	}
	if st.Verdict != "verified" || st.Report == nil || !st.Report.Secure {
		t.Fatalf("verdict = %q, report = %+v", st.Verdict, st.Report)
	}
	rj := st.Repair
	if rj == nil {
		t.Fatal("no repair payload on a completed repair job")
	}
	if !strings.Contains(rj.PatchedAsm, "and #0x3ff, r14") || !strings.Contains(rj.PatchedAsm, "bis #0x400, r14") {
		t.Errorf("patched asm lacks the mask pair:\n%s", rj.PatchedAsm)
	}
	if len(rj.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rj.Rounds))
	}
	if rj.Rounds[0].ViolatingStorePCs != 1 || rj.Rounds[0].NewlyFlagged != 1 {
		t.Errorf("round 0 = %+v, want one flagged violating store", rj.Rounds[0])
	}
	if rj.Rounds[1].MaskedStores != 1 || rj.Rounds[1].Verdict != "verified" {
		t.Errorf("round 1 = %+v, want one masked store, verified", rj.Rounds[1])
	}
	if rj.Targeted.MaskedStores != 1 || rj.Targeted.Watchdog || !rj.AlwaysOn.Watchdog {
		t.Errorf("overheads = targeted %+v / always-on %+v", rj.Targeted, rj.AlwaysOn)
	}
	if rj.ReductionFactor <= 1 {
		t.Errorf("reduction factor = %v, want > 1", rj.ReductionFactor)
	}
	if err := rj.Validate(); err != nil {
		t.Errorf("served payload fails the fail-closed gate: %v", err)
	}

	m := c.metrics()
	if m.RepairJobs != 1 || m.RepairRounds != 2 || m.RepairMaskedStores != 1 {
		t.Errorf("repair metrics = %d jobs / %d rounds / %d masked, want 1/2/1",
			m.RepairJobs, m.RepairRounds, m.RepairMaskedStores)
	}
	if m.EngineRuns != 2 {
		t.Errorf("engine runs = %d, want 2 (one per round)", m.EngineRuns)
	}
	// The run-time histogram observes every engine run, not every job.
	_, body := c.get("/metrics", "")
	var observed float64
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "glift_engine_run_seconds_count{"); ok {
			n, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad histogram count line %q: %v", line, err)
			}
			observed += n
		}
	}
	if observed != 2 {
		t.Errorf("glift_engine_run_seconds observed %v runs, want 2 (one per round)", observed)
	}
}

// TestRepairRunsOnServerDesign: a NewOn server repairs on its own design,
// the one its repair keys carry the fingerprint of. With r14 bit 10 stuck
// at 1, violSrc's store address always lands in the tainted partition, so
// the server's analysis verifies the program and its repair loop must
// agree in one round; the shared design flags the store and masks it in a
// second round.
func TestRepairRunsOnServerDesign(t *testing.T) {
	d := target.Default().NewDesign()
	stuck := 0
	for i := range d.NL.DFFs {
		if ff := &d.NL.DFFs[i]; ff.Q == d.Regs[14][10] {
			ff.D, ff.Rst, ff.En = d.NL.Const1(), d.NL.Const0(), d.NL.Const1()
			stuck++
		}
	}
	if stuck != 1 {
		t.Fatalf("%d flip-flops drive r14 bit 10, want 1", stuck)
	}
	s, err := NewOn(d, Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	c := &testClient{t: t, srv: hs, s: s}

	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{Source: violSrc, Policy: violPolicy(t)})
	if code != http.StatusOK || st.Report == nil || st.Report.Stats.Cycles != 11 {
		t.Fatalf("analysis on the stuck design: HTTP %d, status %+v; want verified in 11 cycles", code, st)
	}
	code, st = c.do("POST", "/jobs?wait=1", repairReq())
	if code != http.StatusOK || st.Repair == nil {
		t.Fatalf("repair on the stuck design: HTTP %d, verdict %q", code, st.Verdict)
	}
	if rounds := st.Repair.Rounds; len(rounds) != 1 || rounds[0].Violations != 0 || rounds[0].Verdict != "verified" {
		t.Errorf("repair rounds = %+v, want one verified round, as the server's analysis found", rounds)
	}
}

// TestRepairJobBadRequests: repair-mode user errors are 400s, rejected
// before any queue or engine state is touched.
func TestRepairJobBadRequests(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	cases := map[string]*JobRequest{
		"unknown mode": {Source: cleanSrc, Mode: "transmogrify", Policy: PolicyRequest{Name: "p"}},
		"ihex program": {IHex: ":00000001FF\n", Mode: "repair", Policy: PolicyRequest{Name: "p"}},
		"no program":   {Mode: "repair", Policy: PolicyRequest{Name: "p"}},
		"numeric tainted_code": {Source: violSrc, Mode: "repair",
			Policy: violPolicy(t), Repair: &RepairRequest{}},
		"bad partition": func() *JobRequest {
			r := repairReq()
			r.Repair.Partition = "0x100:0x300"
			return r
		}(),
		"bad range": func() *JobRequest {
			r := repairReq()
			r.Repair.TaintedCode = []string{"nosuchsym:tend"}
			return r
		}(),
		"negative rounds": func() *JobRequest {
			r := repairReq()
			r.Repair.Rounds = -1
			return r
		}(),
	}
	for name, req := range cases {
		if code, _ := c.do("POST", "/jobs", req); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	if m := c.metrics(); m.EngineRuns != 0 || m.RepairJobs != 0 {
		t.Errorf("bad requests reached the engine: runs=%d repair_jobs=%d", m.EngineRuns, m.RepairJobs)
	}
}

// TestRepairCacheHit: an identical repair resubmission is served from the
// result cache byte-identically, with zero additional engine runs.
func TestRepairCacheHit(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	code, first, st := c.rawRepair(repairReq())
	if code != http.StatusOK || st.CacheHit {
		t.Fatalf("first run: HTTP %d, cache_hit %v", code, st.CacheHit)
	}
	runs := c.metrics().EngineRuns

	code, second, st2 := c.rawRepair(repairReq())
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("resubmit: HTTP %d, cache_hit %v (want a cache hit)", code, st2.CacheHit)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached repair payload differs from the original:\n%s\nvs\n%s", first, second)
	}
	if m := c.metrics(); m.EngineRuns != runs {
		t.Errorf("engine runs grew %d -> %d on a cache hit", runs, m.EngineRuns)
	}
}

// TestRepairKeyDomains: a repair job and an analysis job over the same
// source never share a key — the repair keyspace is domain-tagged, so one
// cache and one store serve both shapes without ambiguity.
func TestRepairKeyDomains(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	_, stRepair := c.do("POST", "/jobs?wait=1", repairReq())
	analyze := repairReq()
	analyze.Mode = ""
	analyze.Repair = nil
	_, stAnalyze := c.do("POST", "/jobs?wait=1", analyze)
	if stRepair.Key == "" || stRepair.Key == stAnalyze.Key {
		t.Fatalf("repair key %q vs analysis key %q, want distinct", stRepair.Key, stAnalyze.Key)
	}
	if stAnalyze.CacheHit {
		t.Error("analysis submission hit the repair job's cache entry")
	}
	if stAnalyze.Repair != nil {
		t.Error("analysis job carries a repair payload")
	}
	if stAnalyze.Mode == modeRepair {
		t.Error("analysis job reported repair mode")
	}
}

// TestRepairStoreRecovery: a completed repair job persisted to the store is
// recovered byte-identically by a fresh server over the same directory,
// with zero engine re-runs — the service-level half of the crash-recovery
// contract (the integration suite exercises it with kill -9 on real
// binaries).
func TestRepairStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, StoreDir: dir}
	c1, _ := newTestClient(t, cfg)
	code, first, st := c1.rawRepair(repairReq())
	if code != http.StatusOK || st.CacheHit {
		t.Fatalf("first run: HTTP %d, cache_hit %v", code, st.CacheHit)
	}
	c1.close()

	c2, _ := newTestClient(t, cfg)
	code, second, st2 := c2.rawRepair(repairReq())
	if code != http.StatusOK {
		t.Fatalf("recovered run: HTTP %d", code)
	}
	if !st2.CacheHit {
		t.Fatal("recovered submission was not served from the store")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("recovered repair payload differs:\n%s\nvs\n%s", first, second)
	}
	m := c2.metrics()
	if m.EngineRuns != 0 {
		t.Errorf("engine runs = %d after store recovery, want 0", m.EngineRuns)
	}
	if m.StoreHits != 1 {
		t.Errorf("store hits = %d, want 1", m.StoreHits)
	}
}

// answer submits req with wait and returns its status and the served
// result — the repair payload for repair jobs, the report otherwise —
// re-encoded with the run-dependent stats (wall time, peak memory) zeroed,
// so a re-run can be compared byte for byte with a cold run.
func (c *testClient) answer(req *JobRequest) (JobStatusJSON, string) {
	c.t.Helper()
	_, st := c.do("POST", "/jobs?wait=1", req)
	if st.Report == nil {
		c.t.Fatalf("job %s finished without a report", st.ID)
	}
	if st.Repair != nil {
		return st, normalizedRepairJSON(c.t, *st.Repair)
	}
	rj := *st.Report
	rj.Stats.WallNanos, rj.Stats.PeakMemBytes = 0, 0
	b, err := json.Marshal(rj)
	if err != nil {
		c.t.Fatal(err)
	}
	return st, string(b)
}

// TestRepairStoreFailClosed: a persisted record that fails its job kind's
// read gate is quarantined and re-run, never served, and the re-run
// answers exactly as the cold run did. Store().Put rebinds the record's
// envelope to the key it is written under, so each record passes the
// store's checksum and key checks; only the kind's decode gate stands
// between it and a client — including a well-formed record of the other
// kind.
func TestRepairStoreFailClosed(t *testing.T) {
	const repairJob, analysisJob = 0, 1
	reqs := []*JobRequest{repairReq(), {Source: violSrc, Policy: violPolicy(t)}}
	cases := []struct {
		name   string
		victim int // the job whose record is rewritten
		// record builds the rewritten record from the cold runs' records.
		record func(payloads [][]byte) []byte
	}{
		// Flipping one verdict string keeps the payload well-formed JSON
		// but breaks the final-round/report verdict re-derivation.
		{"tampered verdict", repairJob, func(p [][]byte) []byte {
			return bytes.Replace(p[repairJob], []byte(`"verdict":"verified"`), []byte(`"verdict":"violations"`), 1)
		}},
		{"analysis payload under the repair key", repairJob, func(p [][]byte) []byte { return p[analysisJob] }},
		{"repair payload under the analysis key", analysisJob, func(p [][]byte) []byte { return p[repairJob] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1, QueueDepth: 8, StoreDir: t.TempDir()}
			c1, s1 := newTestClient(t, cfg)
			keys := make([]string, len(reqs))
			answers := make([]string, len(reqs))
			payloads := make([][]byte, len(reqs))
			for i, req := range reqs {
				var st JobStatusJSON
				st, answers[i] = c1.answer(req)
				keys[i] = st.Key
				var ok bool
				if payloads[i], ok = s1.Store().Get(st.Key); !ok {
					t.Fatalf("cold job %d not in the store", i)
				}
			}
			record := tc.record(payloads)
			if bytes.Equal(record, payloads[tc.victim]) {
				t.Fatal("rewritten record equals the victim's own record")
			}
			if err := s1.Store().Put(keys[tc.victim], record); err != nil {
				t.Fatal(err)
			}
			c1.close()

			c2, _ := newTestClient(t, cfg)
			st, ans := c2.answer(reqs[tc.victim])
			if st.CacheHit {
				t.Fatal("rewritten record was served instead of quarantined")
			}
			m := c2.metrics()
			if m.EngineRuns == 0 {
				t.Error("no engine re-run after quarantining the rewritten record")
			}
			if m.StoreQuarantined == 0 {
				t.Error("rewritten record was not quarantined")
			}
			if ans != answers[tc.victim] {
				t.Errorf("re-run answer differs from the cold run:\n%s\nvs\n%s", ans, answers[tc.victim])
			}
		})
	}
}

// TestRepairRoundEvents: the job's SSE stream carries one `round` event per
// repair round, matching the served payload's round records, all before the
// terminal verdict.
func TestRepairRoundEvents(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	code, st := c.do("POST", "/jobs?wait=1", repairReq())
	if code != http.StatusOK {
		t.Fatalf("repair submit: HTTP %d", code)
	}
	if st.Repair == nil {
		t.Fatal("no repair payload")
	}
	resp, br := openStream(t, c, st.ID, 0)
	defer resp.Body.Close()
	evs := drainStream(t, br, 0)
	var rounds []RoundEventJSON
	sawVerdict := false
	for _, ev := range evs {
		switch ev.typ {
		case EventRound:
			if sawVerdict {
				t.Error("round event after the terminal verdict")
			}
			var re RoundEventJSON
			if err := json.Unmarshal(ev.data, &re); err != nil {
				t.Fatalf("bad round event %s: %v", ev.data, err)
			}
			rounds = append(rounds, re)
		case EventVerdict:
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatal("stream ended without a verdict event")
	}
	if len(rounds) != len(st.Repair.Rounds) {
		t.Fatalf("stream carried %d round events for %d rounds", len(rounds), len(st.Repair.Rounds))
	}
	for i, re := range rounds {
		want := st.Repair.Rounds[i]
		if re.Round != want.Round || re.MaskedStores != want.MaskedStores ||
			re.Violations != want.Violations || re.ViolatingStorePCs != want.ViolatingStorePCs ||
			re.NewlyFlagged != want.NewlyFlagged || re.Verdict != want.Verdict {
			t.Errorf("round event %d = %+v, payload round = %+v", i, re, want)
		}
		if re.ID != st.ID {
			t.Errorf("round event %d carries job %q, want %q", i, re.ID, st.ID)
		}
	}
}

// TestRepairDrainIncomplete: Server.Drain past its deadline mid-round
// cancels the repair loop; the stream still ends with a terminal incomplete
// verdict event, and nothing unproven is served later.
func TestRepairDrainIncomplete(t *testing.T) {
	c, s := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	req := &JobRequest{
		Source:  slowSrc,
		Mode:    "repair",
		Policy:  PolicyRequest{Name: "slow"},
		Options: slowOptions(),
	}
	code, st := c.do("POST", "/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	resp, br := openStream(t, c, st.ID, 0)
	defer resp.Body.Close()

	// Wait for the running transition so the drain provably lands mid-round.
	sawRunning := false
	var prev uint64
	for !sawRunning {
		ev, ok := nextEvent(t, br)
		if !ok {
			t.Fatal("stream ended before the repair job started running")
		}
		prev = ev.id
		var state StateEventJSON
		if ev.typ == EventState && json.Unmarshal(ev.data, &state) == nil && state.State == stateRunning {
			sawRunning = true
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain with a cancelled context returned nil; wanted the straggler-cancelling path")
	}

	evs := drainStream(t, br, prev)
	if len(evs) == 0 {
		t.Fatal("no events after drain")
	}
	last := evs[len(evs)-1]
	if last.typ != EventVerdict {
		t.Fatalf("drained stream ended with %s, want verdict", last.typ)
	}
	var v VerdictEventJSON
	if err := json.Unmarshal(last.data, &v); err != nil || v.Verdict != "incomplete" {
		t.Fatalf("drained repair job's terminal event = %s", last.data)
	}
	final := c.awaitDone(st.ID, 5*time.Second)
	if final.Verdict != "incomplete" {
		t.Errorf("final verdict = %q, want incomplete", final.Verdict)
	}
	if final.Repair != nil && final.Repair.Report.Verdict != "incomplete" {
		t.Errorf("repair payload verdict = %q, want incomplete", final.Repair.Report.Verdict)
	}
}

// TestRepairCoalesce: concurrent identical repair submissions share one
// execution — every waiter gets the same patched assembly, and the engine
// runs exactly one job's worth of rounds.
func TestRepairCoalesce(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	const n = 4
	type res struct {
		code int
		st   JobStatusJSON
	}
	results := make(chan res, n)
	for i := 0; i < n; i++ {
		go func() {
			code, st := c.do("POST", "/jobs?wait=1", repairReq())
			results <- res{code, st}
		}()
	}
	var asms []string
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("waiter %d: HTTP %d", i, r.code)
			continue
		}
		if r.st.Repair == nil {
			t.Errorf("waiter %d: no repair payload", i)
			continue
		}
		asms = append(asms, r.st.Repair.PatchedAsm)
	}
	for i := 1; i < len(asms); i++ {
		if asms[i] != asms[0] {
			t.Errorf("waiter %d saw different patched asm", i)
		}
	}
	if m := c.metrics(); m.EngineRuns != 2 {
		t.Errorf("engine runs = %d for %d identical submissions, want 2 (one execution)", m.EngineRuns, n)
	}
}
