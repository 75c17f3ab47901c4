// Package service implements gliftd, a long-running concurrent analysis
// service over the glift engine. It accepts analysis jobs (a program as
// assembly source or an Intel-hex image, an information flow policy, and
// engine options) over HTTP, runs them on a bounded worker pool — each job
// under its own context with an optional deadline, inheriting the engine's
// fail-closed cancellation and memory-budget contract — and returns the
// full analysis report in the shared glift.ReportJSON wire shape.
//
// Results are stored in a content-addressed cache keyed by a canonical
// SHA-256 over (target name, netlist fingerprint, assembled image,
// canonical policy encoding, normalized engine options, job deadline), so a
// byte-identical resubmission is served without re-running the engine. An in-flight
// deduplication layer coalesces concurrent identical submissions onto a
// single execution. Only completed explorations (Verified or Violations
// verdicts) are cached: an Incomplete or InternalError outcome reflects the
// run, not the inputs, and must not be replayed to later submitters.
package service

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/target"
)

// Config tunes a Server.
type Config struct {
	// Workers is the number of concurrent analysis workers (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue rejects new work with 503 rather than buffering without bound
	// (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 1024, FIFO eviction).
	CacheEntries int
	// DefaultDeadline applies to jobs that do not specify deadline_ms
	// (0: no deadline).
	DefaultDeadline time.Duration
	// EngineWorkers is the per-engine exploration worker count applied to
	// jobs that do not request one (0: the engine default, GOMAXPROCS).
	// Service workers multiply with engine workers, so hosts running
	// several concurrent jobs usually want this pinned low.
	EngineWorkers int

	// StoreDir enables the crash-safe persistent result store: completed
	// Verified/Violations reports are fsynced there before the submitter is
	// answered, and startup recovery re-indexes every surviving record
	// ("" disables persistence; the in-memory cache still applies).
	StoreDir string
	// StoreMaxBytes caps the on-disk store; the oldest records are evicted
	// first (0: unbounded).
	StoreMaxBytes int64
	// StoreWriteDelay is a chaos-test hook holding every store write
	// half-written for the given duration before its fsync and rename —
	// widening the kill -9 window the atomic-write protocol must absorb.
	// Production use leaves it 0.
	StoreWriteDelay time.Duration

	// TenantRate enables per-tenant token-bucket admission, in jobs per
	// second of sustained refill keyed by the X-Tenant header (0 disables).
	// An exhausted bucket rejects 429 with Retry-After.
	TenantRate float64
	// TenantBurst is the token-bucket capacity (default: ceil(TenantRate),
	// at least 1).
	TenantBurst int

	// ChaosRejectPercent injects spurious 503 + Retry-After responses on
	// that percentage of submissions — a fault-injection hook for proving
	// client backoff and end-to-end verdict integrity under overload.
	// Production use leaves it 0.
	ChaosRejectPercent int

	// DefaultTarget is the processor target applied to submissions that
	// omit the "target" field (empty: the registry default, msp430). The
	// effective target always participates in the job key, so flipping
	// this between restarts never lets jobs from different targets share
	// cache entries.
	DefaultTarget string

	// StreamRingEvents bounds the per-job event ring behind
	// GET /jobs/{id}/events; a reader that falls further behind sees a gap
	// marker (default obs.DefaultRingEvents).
	StreamRingEvents int
	// StreamHeartbeat is the SSE comment-heartbeat cadence on quiet
	// streams (default 15s).
	StreamHeartbeat time.Duration
	// Logger receives structured per-job logs — submissions and
	// completions carry job_id/tenant/verdict attributes so server logs
	// correlate with stream events by job ID (nil: logs are discarded).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// loadState is the admission and drain state; its fields are guarded by
// Server.mu. The event counts live in the registry (promMetrics) alone.
type loadState struct {
	// queueDepth tracks enqueue/dequeue transitions (never sampled from the
	// channel, which would race against concurrent senders and receivers).
	queueDepth  int
	busyWorkers int
	// avgRunNanos is the completed-job duration EWMA pricing queue
	// admission for deadline-aware shedding.
	avgRunNanos float64
}

// Server is the analysis service: a job registry, a bounded worker pool and
// a content-addressed result cache behind an HTTP API.
type Server struct {
	cfg      Config
	design   *mcu.Design // the default target's design (or NewOn's override)
	designFP [sha256.Size]byte
	mux      *http.ServeMux
	// tmu guards tdesigns, the lazily-built designs of non-default targets
	// (fingerprinting a netlist is not free, so each is computed once).
	tmu      sync.Mutex
	tdesigns map[string]targetDesign
	queue    chan *job
	wg       sync.WaitGroup
	store    *store.Store  // nil: persistence disabled
	quotas   *tenantQuotas // nil: per-tenant admission disabled
	broker   *obs.Broker   // per-job event streams (GET /jobs/{id}/events)
	log      *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // content key -> running/queued job
	cache    *resultCache
	nextID   uint64
	closed   bool
	draining bool
	m        loadState
	prom     *promMetrics
}

// New builds a Server analyzing on the shared processor design and starts
// its worker pool. Callers must Close it to stop the workers.
func New(cfg Config) (*Server, error) {
	return NewOn(glift.SharedDesign(), cfg)
}

// NewOn is New on an explicit design (the hook for tests and for serving
// analyses of modified netlists). Opening the persistent store — including
// its scan-validate-index recovery pass — happens here, so a server that
// starts is guaranteed to be serving only integrity-checked results.
func NewOn(d *mcu.Design, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := target.Parse(cfg.DefaultTarget); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		design:   d,
		designFP: d.NL.Fingerprint(),
		tdesigns: make(map[string]targetDesign),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newResultCache(cfg.CacheEntries),
		prom:     newPromMetrics(cfg.Workers),
		broker:   obs.NewBroker(cfg.StreamRingEvents),
		log:      cfg.Logger,
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{
			MaxBytes:   cfg.StoreMaxBytes,
			WriteDelay: cfg.StoreWriteDelay,
		})
		if err != nil {
			return nil, fmt.Errorf("service: opening result store: %w", err)
		}
		s.store = st
	}
	if cfg.TenantRate > 0 {
		s.quotas = newTenantQuotas(cfg.TenantRate, cfg.TenantBurst)
	}
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the persistent result store (nil when persistence is
// disabled) — the hook for tests and operational tooling.
func (s *Server) Store() *store.Store { return s.store }

// Handler returns the HTTP API, instrumented with the request-latency
// histogram.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Close stops accepting jobs, cancels everything in flight and waits for
// the worker pool to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	// Workers have drained every admitted job, so each topic already ended
	// with its verdict event; closing the rest releases any subscriber
	// still parked on a stream.
	s.broker.CloseAll()
}

// Drain is the graceful half of shutdown: it stops admitting new jobs
// (submissions are rejected 503 + Retry-After) and waits for every queued
// and running job to complete through the normal path — which persists
// completed results to the store before their waiters are released — until
// ctx expires, at which point the stragglers are cancelled and Drain
// returns ctx's error. Callers still Close afterwards; Drain followed by
// Close is the SIGTERM sequence, Close alone is the abrupt one.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.m.queueDepth == 0 && s.m.busyWorkers == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range s.jobs {
				j.cancel()
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// targetDesign is one lazily-resolved non-default target: its immutable
// shared design and the netlist fingerprint that keys its jobs.
type targetDesign struct {
	d  *mcu.Design
	fp [sha256.Size]byte
}

// designFor resolves the design and netlist fingerprint a job's target
// analyzes on. The default target maps to the server's own design — which
// NewOn may have overridden with a modified netlist — so the pre-target
// semantics of every existing caller are preserved; other targets resolve
// through the registry, memoized per server.
func (s *Server) designFor(tgt *target.Target) (*mcu.Design, [sha256.Size]byte) {
	if tgt == nil || tgt.Name == target.Default().Name {
		return s.design, s.designFP
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if e, ok := s.tdesigns[tgt.Name]; ok {
		return e.d, e.fp
	}
	d := tgt.Design()
	e := targetDesign{d: d, fp: d.NL.Fingerprint()}
	s.tdesigns[tgt.Name] = e
	return e.d, e.fp
}

// keyHash accumulates a job key: SHA-256 over the kind's inputs and the
// shared options-and-deadline tail.
type keyHash struct{ hash.Hash }

// put appends v's fixed-size little-endian encoding.
func (h keyHash) put(v any) {
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("service: hashing job key: %v", err))
	}
}

// putBytes appends b with a length prefix.
func (h keyHash) putBytes(b []byte) {
	h.put(uint32(len(b)))
	h.Write(b)
}

// jobKey computes the canonical content address of a job: the SHA-256 of
// the kind's inputs (see analysisKind.writeKey and repairKind.writeKey),
// then the normalized engine options and the job deadline. Two submissions
// with equal keys are guaranteed to produce the same completed result,
// which is what makes cache reuse and in-flight coalescing sound.
func (s *Server) jobKey(k jobKind, opt *glift.Options, deadline time.Duration) string {
	h := keyHash{sha256.New()}
	k.writeKey(s, h)
	// Normalized() zeroes Options.Workers: the parallel engine guarantees
	// byte-identical reports for every worker count (the suites in
	// internal/glift and the repair differential enforce it), so hashing it
	// would only split the cache and defeat coalescing between equivalent
	// submissions.
	n := opt.Normalized()
	h.put(n.MaxCycles)
	h.put(n.MaxPathCycles)
	h.put(int64(n.WidenAfter))
	h.put(n.SoftMemBytes)
	h.put(n.HardMemBytes)
	h.put(int64(deadline))
	return hex.EncodeToString(h.Sum(nil))
}

// worker drains the queue until Close. The queued→busy transition is one
// critical section so an observer (Drain, /metrics) never sees a claimed
// job as neither queued nor running.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.m.queueDepth--
		s.m.busyWorkers++
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job of either kind and publishes its result — to the
// job record (waiters), the job's event stream (terminal verdict event with
// per-stage latencies), the per-stage latency histograms, and the
// structured log.
func (s *Server) runJob(j *job) {
	started := time.Now()
	queueWait := started.Sub(j.enqueued)
	s.prom.stages.Observe(StageQueueWait, queueWait)
	j.setState(stateRunning)
	s.publish(j.id, EventState, StateEventJSON{ID: j.id, State: stateRunning})
	ctx := j.ctx
	if j.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
		defer cancel()
	}
	opt := j.opt
	if opt.Workers == 0 {
		opt.Workers = s.cfg.EngineWorkers
	}
	if j.streamTrace > 0 {
		opt.Tracer = s.traceSampler(j, j.streamTrace)
	}

	engStart := time.Now()
	res, cost := j.kind.run(ctx, s, j, &opt)
	engineRun := time.Since(engStart)
	s.prom.stages.Observe(StageEngineRun, engineRun)
	verdict := res.rep.Verdict()
	// Only completed explorations are kept: Incomplete and InternalError
	// reflect the run, not the inputs.
	keep := verdict == glift.Verified || verdict == glift.Violations

	// Persist before publishing: once any waiter sees the completed result,
	// the result has been fsynced, so an acknowledged verdict survives
	// kill -9.
	var persistDur time.Duration
	if keep {
		pStart := time.Now()
		s.persist(j.key, res)
		persistDur = time.Since(pStart)
		s.prom.stages.Observe(StagePersist, persistDur)
	}

	s.mu.Lock()
	s.m.busyWorkers--
	s.observeRunLocked(time.Since(started))
	delete(s.inflight, j.key)
	if keep {
		s.cache.put(j.key, res)
	}
	s.mu.Unlock()
	s.prom.jobsCompleted.With(verdict.String()).Inc()
	s.finishJob(j, res, StageTimesJSON{
		QueueWaitNS: queueWait.Nanoseconds(),
		EngineRunNS: engineRun.Nanoseconds(),
		PersistNS:   persistDur.Nanoseconds(),
		TotalNS:     time.Since(j.created).Nanoseconds(),
	})
	s.log.Info("job completed",
		"job_id", j.id, "tenant", j.tenant, "mode", cmp.Or(j.mode, "analyze"),
		"verdict", verdict.String(), "engine_runs", cost.engineRuns, "cycles", cost.cycles,
		"queue_wait_ms", queueWait.Milliseconds(), "engine_run_ms", engineRun.Milliseconds())
}

// progressHook returns a fresh Options.Progress hook for one engine run of
// j: it mirrors the run into the engine metrics (one observer per run, so
// the cumulative→delta conversion never sees a counter reset) and into the
// job's progress and event stream.
func (s *Server) progressHook(j *job) func(glift.Progress) {
	return (&engineProgress{m: s.prom, next: func(p glift.Progress) {
		j.setProgress(p)
		s.publish(j.id, EventProgress, progressJSON(p))
	}}).observe
}

// persist writes one completed result durably. A store failure (cap
// exceeded, disk error) is absorbed: the result stays served from memory
// and is simply not durable, which the store's own PutErrors counter
// surfaces — durability degrades, correctness never does.
func (s *Server) persist(key string, res *cachedResult) {
	if s.store == nil {
		return
	}
	payload, err := res.encode()
	if err != nil {
		return
	}
	s.store.Put(key, payload) //nolint:errcheck // see above; counted in store stats
}

// lookupStore probes the persistent store for a completed result of kind
// k. A hit is trusted only after full reconstruction: the payload must pass
// the kind's decode gate and re-encode byte-identically — the same bytes a
// cold run would produce. Any failure, including a record of the other
// kind, quarantines the record and reads as a miss, extending the
// fail-closed contract to storage.
func (s *Server) lookupStore(key string, k jobKind) *cachedResult {
	if s.store == nil {
		return nil
	}
	payload, ok := s.store.Get(key)
	if !ok {
		return nil
	}
	res, err := k.decode(payload)
	var canon []byte
	if err == nil {
		canon, err = res.encode()
	}
	if err != nil || !bytes.Equal(canon, payload) {
		s.store.Quarantine(key)
		return nil
	}
	return res
}

// analysisKind is one run of the analysis engine: Algorithm 1's verdict for
// an image under a policy on a target's design.
type analysisKind struct {
	tgt *target.Target
	img *asm.Image
	pol *glift.Policy
}

func (k *analysisKind) mode() string { return modeAnalyze }

// writeKey hashes the target name and its netlist fingerprint, the
// assembled image (entry point plus every segment) and the policy's
// canonical JSON. The target selects the analyzed system itself, so it
// participates in the key, while the wall-time knob (Workers) does not.
func (k *analysisKind) writeKey(s *Server, h keyHash) {
	_, fp := s.designFor(k.tgt)
	h.Write([]byte(k.tgt.Name))
	h.Write([]byte{0})
	h.Write(fp[:])
	h.put(k.img.Entry)
	h.put(uint32(len(k.img.Segments)))
	for _, seg := range k.img.Segments {
		h.put(seg.Addr)
		h.put(uint32(len(seg.Words)))
		h.put(seg.Words)
	}
	h.Write(k.pol.CanonicalJSON())
}

// run executes one engine exploration. The run carries pprof labels (job
// id, policy), so CPU and heap profiles taken through gliftd's -pprof
// endpoint attribute samples to the job that burned them.
func (k *analysisKind) run(ctx context.Context, s *Server, j *job, opt *glift.Options) (*cachedResult, runCost) {
	opt.Progress = s.progressHook(j)
	var rep *glift.Report
	design, _ := s.designFor(k.tgt)
	eng, err := glift.NewEngineOn(design, k.img, k.pol, opt)
	if err != nil {
		// Policy validation happens at submission time, so this is an
		// internal construction failure; report it fail-closed.
		rep = &glift.Report{Policy: k.pol.Name, Err: &glift.RunError{Reason: err.Error()}}
	} else {
		pprof.Do(ctx, pprof.Labels("glift_job", j.id, "glift_policy", k.pol.Name),
			func(ctx context.Context) { rep = eng.RunContext(ctx) })
	}
	s.prom.runDur.With(rep.Verdict().String()).Observe(float64(rep.Stats.WallNanos) / 1e9)
	return &cachedResult{rep: rep}, runCost{engineRuns: 1, cycles: rep.Stats.Cycles}
}

// decode rebuilds a stored report; ReportJSON.Report re-derives the verdict
// and rejects a mismatch.
func (k *analysisKind) decode(payload []byte) (*cachedResult, error) {
	var rj glift.ReportJSON
	if err := json.Unmarshal(payload, &rj); err != nil {
		return nil, err
	}
	rep, err := rj.Report()
	if err != nil {
		return nil, err
	}
	return &cachedResult{rep: rep}, nil
}
