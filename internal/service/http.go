package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"repro/internal/glift"
	"repro/internal/obs"
	"repro/internal/repair"
)

// The HTTP API, mapping the fail-closed verdict taxonomy onto status codes
// (mirroring the CLI exit-code contract 0/1/2/3):
//
//	POST   /jobs          submit a JobRequest; ?wait=1 blocks for the result
//	GET    /jobs/{id}     status + live progress; final report when done
//	DELETE /jobs/{id}     cancel; the run completes with verdict incomplete
//	GET    /metrics       Prometheus text exposition (JSON via Accept:
//	                      application/json, preserving the legacy shape)
//	GET    /metrics.json  service counters as JSON
//	GET    /healthz       liveness
//
// Verdict → status for completed jobs: verified → 200, violations → 409,
// incomplete → 504, internal-error → 500. Malformed submissions (bad JSON,
// unassemblable source, invalid policy — the CLI's exit code 2) → 400.

// ProgressJSON is the wire form of live job progress.
type ProgressJSON struct {
	Cycles      uint64 `json:"cycles"`
	Paths       int    `json:"paths"`
	TableStates int    `json:"table_states"`
	Pending     int    `json:"pending_paths"`
	// WallNanos is the elapsed exploration wall time at the snapshot.
	WallNanos int64 `json:"wall_ns"`
	Done      bool  `json:"done"`
}

// JobStatusJSON is the wire form of one job record.
type JobStatusJSON struct {
	ID        string            `json:"id"`
	Key       string            `json:"key"`
	State     string            `json:"state"`
	Mode      string            `json:"mode,omitempty"` // "repair" for repair jobs
	CacheHit  bool              `json:"cache_hit"`
	Coalesced int64             `json:"coalesced,omitempty"`
	Cancelled bool              `json:"cancelled,omitempty"`
	Verdict   string            `json:"verdict,omitempty"`
	Progress  ProgressJSON      `json:"progress"`
	Report    *glift.ReportJSON `json:"report,omitempty"`
	// Repair is the completed repair payload (patched assembly, per-round
	// counts, targeted-vs-always-on overheads, final report).
	Repair *repair.ResultJSON `json:"repair,omitempty"`
}

// MetricsJSON is the /metrics payload.
type MetricsJSON struct {
	JobsSubmitted   int64            `json:"jobs_submitted"`
	JobsCompleted   int64            `json:"jobs_completed"`
	JobsByVerdict   map[string]int64 `json:"jobs_by_verdict"`
	CacheHits       int64            `json:"cache_hits"`
	CacheMisses     int64            `json:"cache_misses"`
	CacheEntries    int              `json:"cache_entries"`
	JobsCoalesced   int64            `json:"jobs_coalesced"`
	EngineRuns      int64            `json:"engine_runs"`
	JobsRejected    int64            `json:"jobs_rejected"`
	DeadlineShed    int64            `json:"deadline_shed"`
	QuotaRejected   int64            `json:"quota_rejected"`
	ChaosInjected   int64            `json:"chaos_injected,omitempty"`
	CancelRequests  int64            `json:"cancel_requests"`
	QueueDepth      int              `json:"queue_depth"`
	Workers         int              `json:"workers"`
	BusyWorkers     int              `json:"busy_workers"`
	CyclesSimulated uint64           `json:"cycles_simulated_total"`
	Draining        bool             `json:"draining,omitempty"`

	// Repair-mode activity (mode: "repair" submissions).
	RepairJobs         int64 `json:"repair_jobs"`
	RepairRounds       int64 `json:"repair_rounds"`
	RepairMaskedStores int64 `json:"repair_masked_stores"`

	// Event-stream state (GET /jobs/{id}/events).
	StreamSubscribers int `json:"stream_subscribers"`
	StreamTopics      int `json:"stream_topics"`

	// Persistent-store metrics (all zero when persistence is disabled).
	StoreHits        int64 `json:"store_hits"`
	StoreEntries     int   `json:"store_entries"`
	StoreBytes       int64 `json:"store_bytes"`
	StoreRecovered   int64 `json:"store_recovered"`
	StoreQuarantined int64 `json:"store_quarantined"`
	StorePuts        int64 `json:"store_puts"`
	StorePutErrors   int64 `json:"store_put_errors"`
	StoreEvictions   int64 `json:"store_evictions"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// verdictStatus maps the fail-closed verdict taxonomy onto HTTP statuses.
func verdictStatus(v glift.Verdict) int {
	switch v {
	case glift.Verified:
		return http.StatusOK
	case glift.Violations:
		return http.StatusConflict
	case glift.Incomplete:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a broken client connection is not recoverable here
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// status snapshots one job record for the wire.
func (j *job) status() JobStatusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatusJSON{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Mode:      j.mode,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Cancelled: j.cancelled,
		Progress:  progressJSON(j.progress),
	}
	if j.res != nil {
		rj := j.res.rep.JSON()
		st.Verdict = rj.Verdict
		st.Report = &rj
		st.Repair = j.res.rres
	}
	return st
}

// newJobLocked allocates a job record and its event-stream topic; the
// caller holds s.mu.
func (s *Server) newJobLocked(key, mode string) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		key:     key,
		mode:    mode,
		state:   stateQueued,
		done:    make(chan struct{}),
		created: time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	s.jobs[j.id] = j
	s.broker.Open(j.id)
	return j
}

// tryServeExistingLocked answers a submission from the memory cache (which
// also serves validated store hits, promoted into it) or coalesces it onto
// an identical in-flight job. start is when the submission began (the
// cache-hit latency span). The caller holds s.mu; when it returns true the
// lock has been released and the response written.
func (s *Server) tryServeExistingLocked(w http.ResponseWriter, r *http.Request, key, mode string, wait bool, start time.Time) bool {
	// Content-addressed reuse: a completed identical job answers instantly.
	// Repair keys are domain-tagged, so a hit's shape always matches the
	// submission's mode.
	if c, ok := s.cache.get(key); ok {
		s.prom.cacheHits.Inc()
		j := s.newJobLocked(key, mode)
		j.cacheHit = true
		j.tenant = tenantOf(r)
		s.mu.Unlock()
		s.finishHit(j, c, start)
		s.respond(w, r, j, wait)
		return true
	}
	// In-flight dedup: an identical job already queued or running serves
	// this submission too; the engine executes once.
	if ex, ok := s.inflight[key]; ok {
		s.prom.coalesced.Inc()
		s.mu.Unlock()
		ex.mu.Lock()
		ex.coalesced++
		ex.mu.Unlock()
		s.respond(w, r, ex, wait)
		return true
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	submitStart := time.Now()
	// Fault injection (chaos harness): a spurious overload answer that a
	// well-behaved client absorbs by honoring Retry-After and retrying.
	if p := s.cfg.ChaosRejectPercent; p > 0 && rand.IntN(100) < p {
		s.prom.chaosInjected.Inc()
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "chaos: injected overload")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Target == "" {
		req.Target = s.cfg.DefaultTarget
	}
	kind, opt, deadline, err := compile(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Per-tenant admission: an exhausted token bucket rejects before any
	// queue or cache state is touched.
	if s.quotas != nil {
		if ok, retry := s.quotas.admit(tenantOf(r)); !ok {
			s.prom.quotaRejected.Inc()
			setRetryAfter(w, retry)
			writeError(w, http.StatusTooManyRequests, "tenant %q over submission quota", tenantOf(r))
			return
		}
	}
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	wait := r.URL.Query().Get("wait") != "" && r.URL.Query().Get("wait") != "0"
	key := s.jobKey(kind, opt, deadline)
	mode := kind.mode()

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.prom.jobsSubmitted.Inc()
	if s.tryServeExistingLocked(w, r, key, mode, wait, submitStart) {
		return
	}
	s.mu.Unlock()

	// Persistent-store probe, outside the server lock (it reads and
	// integrity-checks a record on disk). A validated hit is promoted into
	// the memory cache, so the re-check below serves it and the next
	// identical submission skips the disk.
	stored := s.lookupStore(key, kind)

	s.mu.Lock()
	if stored != nil {
		s.prom.storeHits.Inc()
		s.cache.put(key, stored)
	}
	// Re-check after the unlocked disk probe: an identical submission may
	// have completed or enqueued meanwhile.
	if s.tryServeExistingLocked(w, r, key, mode, wait, submitStart) {
		return
	}
	s.prom.cacheMisses.Inc()
	// Deadline-aware shedding: a job that would time out waiting for a
	// worker is refused now, with the predicted wait as Retry-After,
	// instead of burning a worker on a result nobody can use.
	if estWait := s.estimatedQueueWaitLocked(); deadline > 0 && estWait > deadline {
		s.mu.Unlock()
		s.prom.jobsShed.Inc()
		setRetryAfter(w, estWait)
		writeError(w, http.StatusServiceUnavailable,
			"deadline %s cannot be met: estimated queue wait %s", deadline, estWait.Round(time.Millisecond))
		return
	}
	j := s.newJobLocked(key, mode)
	j.kind, j.opt, j.deadline = kind, *opt, deadline
	j.tenant = tenantOf(r)
	j.streamTrace = req.Options.StreamTrace
	j.enqueued = time.Now()
	select {
	case s.queue <- j:
		s.inflight[key] = j
		s.m.queueDepth++
		s.mu.Unlock()
		s.publish(j.id, EventState, StateEventJSON{ID: j.id, State: stateQueued})
		s.log.Debug("job queued", "job_id", j.id, "tenant", j.tenant, "key", j.key)
	default:
		s.prom.jobsRejected.Inc()
		delete(s.jobs, j.id)
		retry := s.estimatedQueueWaitLocked()
		s.mu.Unlock()
		j.cancel()
		s.broker.CloseTopic(j.id)
		setRetryAfter(w, retry)
		writeError(w, http.StatusServiceUnavailable, "queue full (%d jobs pending)", s.cfg.QueueDepth)
		return
	}
	s.respond(w, r, j, wait)
}

// respond answers a submission: blocking for the final report when wait is
// set, otherwise 202 with the job handle (or the final status if the job is
// already done, e.g. a cache hit).
func (s *Server) respond(w http.ResponseWriter, r *http.Request, j *job, wait bool) {
	if wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return // client went away; the job keeps running for other waiters
		}
	}
	st := j.status()
	code := http.StatusAccepted
	if st.State == stateDone {
		code = verdictStatus(j.res.rep.Verdict())
	}
	writeJSON(w, code, st)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	code := http.StatusOK
	if st.State == stateDone {
		code = verdictStatus(j.res.rep.Verdict())
	}
	writeJSON(w, code, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if ok {
		s.prom.cancels.Inc()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	j.cancelled = true
	already := j.state == stateDone
	j.mu.Unlock()
	j.cancel()
	code := http.StatusAccepted
	if already {
		code = http.StatusOK // finished before the cancel landed
	}
	writeJSON(w, code, j.status())
}

// handleMetrics serves the Prometheus text exposition; clients asking for
// application/json get the legacy JSON shape (also at /metrics.json).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	// State gauges are copied at scrape time. The queue depth comes from
	// the transition count in Server.m: sampling len(s.queue) would race
	// against concurrent senders and receivers.
	s.mu.Lock()
	s.prom.queueDepth.Set(float64(s.m.queueDepth))
	s.prom.workersBusy.Set(float64(s.m.busyWorkers))
	s.prom.cacheEntries.Set(float64(s.cache.len()))
	s.syncStoreMetricsLocked()
	s.mu.Unlock()
	s.prom.streamSubs.Set(float64(s.broker.Subscribers()))
	s.prom.streamTopics.Set(float64(s.broker.Topics()))
	w.Header().Set("Content-Type", obs.PromContentType)
	s.prom.reg.WritePrometheus(w) //nolint:errcheck // a broken client connection is not recoverable here
}

// handleMetricsJSON renders the legacy JSON shape: the event counts from
// the registry, which is their only store, and the state from Server.m.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	p := s.prom
	count := func(c *obs.Counter) int64 { return int64(c.Value()) }
	// A rejected or shed submission was counted as submitted first, so
	// reading the rejections before the submissions keeps the difference
	// from undercounting accepted jobs.
	rejected, shed := count(p.jobsRejected), count(p.jobsShed)
	m := MetricsJSON{
		JobsSubmitted:   count(p.jobsSubmitted) - rejected - shed,
		JobsByVerdict:   map[string]int64{},
		CacheHits:       count(p.cacheHits),
		CacheMisses:     count(p.cacheMisses),
		JobsCoalesced:   count(p.coalesced),
		EngineRuns:      int64(p.runDur.Count()),
		JobsRejected:    rejected,
		DeadlineShed:    shed,
		QuotaRejected:   count(p.quotaRejected),
		ChaosInjected:   count(p.chaosInjected),
		CancelRequests:  count(p.cancels),
		Workers:         s.cfg.Workers,
		CyclesSimulated: uint64(p.engCycles.Value()),
		StoreHits:       count(p.storeHits),

		RepairJobs:         count(p.repairJobs),
		RepairRounds:       count(p.repairRounds),
		RepairMaskedStores: count(p.repairMasked),

		StreamSubscribers: s.broker.Subscribers(),
		StreamTopics:      s.broker.Topics(),
	}
	for verdict, n := range p.jobsCompleted.Values() {
		m.JobsByVerdict[verdict] = int64(n)
		m.JobsCompleted += int64(n)
	}
	s.mu.Lock()
	m.CacheEntries = s.cache.len()
	m.QueueDepth = s.m.queueDepth
	m.BusyWorkers = s.m.busyWorkers
	m.Draining = s.draining
	s.mu.Unlock()
	if s.store != nil {
		st := s.store.Stats()
		m.StoreEntries = s.store.Len()
		m.StoreBytes = s.store.Bytes()
		m.StoreRecovered = st.Recovered
		m.StoreQuarantined = st.Quarantined
		m.StorePuts = st.Puts
		m.StorePutErrors = st.PutErrors
		m.StoreEvictions = st.Evictions
	}
	writeJSON(w, http.StatusOK, m)
}
