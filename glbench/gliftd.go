package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/repair"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/target"
)

// clients is the closed loop's size: each client submits a job, streams
// its events to the verdict, then submits the next one.
const clients = 2

// rssJobs is where gliftd-mixed reads its resident-set high-water mark:
// the daemon keeps every job record, so a mark taken at the end of the
// loop would grow with throughput and read a speed-up as a memory cost.
const rssJobs = 1500

// daemon is an in-process gliftd on a loopback listener, configured with
// cmd/gliftd's flag defaults plus a durable store in a fresh directory.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	dir  string
	base string
	done chan error
}

func startDaemon(ctx context.Context, d *mcu.Design, scratch string, sp *spans) (*daemon, error) {
	id := sp.begin("service.start", -1)
	defer sp.end(id)
	dir, err := os.MkdirTemp(scratch, "gliftd-store-")
	if err != nil {
		return nil, err
	}
	srv, err := service.NewOn(d, service.Config{
		Workers:       runtime.NumCPU(),
		QueueDepth:    64,
		CacheEntries:  1024,
		EngineWorkers: 1,
		StoreDir:      dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	dm := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, dir: dir, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { dm.done <- dm.hs.Serve(ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	probe := client.New(client.Config{BaseURL: dm.base, HTTPClient: &http.Client{Transport: tr, Timeout: 5 * time.Second}})
	for deadline := time.Now().Add(10 * time.Second); !probe.Healthy(ctx); {
		if time.Now().After(deadline) {
			dm.stop()
			return nil, errors.New("gliftd did not accept connections within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return dm, nil
}

// stop shuts the daemon down, waits for its listener and workers, and
// removes its store.
func (dm *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dm.hs.Shutdown(ctx); err != nil {
		dm.hs.Close() //nolint:errcheck // past the bound, connections are cut
	}
	<-dm.done
	dm.srv.Close()
	os.RemoveAll(dm.dir)
}

// newLoadClient returns a client with its own transport holding at most
// one connection, so the closed loop opens at most one per client.
func newLoadClient(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return client.New(client.Config{BaseURL: base, HTTPClient: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}), tr
}

// warmUp submits one small job per target and repeats one, outside the
// timed region, so per-target lazy set-up inside the daemon (design
// fingerprints, first engine builds) and the first connections are done.
func warmUp(ctx context.Context, base string) error {
	cl, tr := newLoadClient(base)
	defer tr.CloseIdleConnections()
	for _, req := range []*service.JobRequest{
		{Source: "start:  mov #0x0280, sp\nloop:   jmp loop\n", Policy: service.PolicyRequest{Name: "warm-up"}},
		{Target: "rv32", Source: "start:  li x5, 1\ndone:   j done\n", Policy: service.PolicyRequest{Name: "warm-up"}},
		{Source: "start:  mov #0x0280, sp\nloop:   jmp loop\n", Policy: service.PolicyRequest{Name: "warm-up"}},
	} {
		res, err := cl.Submit(ctx, req, false)
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		if _, err := cl.StreamToVerdict(ctx, res.Status.ID, nil); err != nil {
			return fmt.Errorf("warm-up stream: %w", err)
		}
	}
	return nil
}

// jobRec is one submission of the closed loop.
type jobRec struct {
	input int
	id    string
	start time.Time
	err   error
	// total is client-observed submit→verdict time.
	total   time.Duration
	verdict service.VerdictEventJSON
	events  int
	gaps    int
	rounds  int // repair round events
}

// loopRun is one closed-loop phase against one daemon.
type loopRun struct {
	recs    []*jobRec
	seconds float64
	m0, m1  service.MetricsJSON
	// raw holds each job ID's served report and repair payload bytes,
	// fetched after the loop.
	raw  map[string][2][]byte
	rss  float64
	gd   goDelta
	heap float64
	sp   *spans
}

// runLoop drives the closed loop for cfg.seconds: clients submit the next
// stream item, stream its events to the verdict, and repeat.
func runLoop(ctx context.Context, cfg config, dm *daemon, st *stream, traced bool) (*loopRun, error) {
	lr := &loopRun{raw: map[string][2][]byte{}}
	mcl, mtr := newLoadClient(dm.base)
	defer mtr.CloseIdleConnections()
	var err error
	if lr.m0, err = mcl.MetricsJSON(ctx); err != nil {
		return nil, err
	}
	var hs *heapSampler
	if traced {
		lr.sp = newSpans()
		hs = startHeapSampler()
	} else {
		resetPeakRSS()
	}
	g0 := readGo()

	var mu sync.Mutex
	var genErr error
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, tr := newLoadClient(dm.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for time.Since(start) < cfg.seconds {
				in, err := st.next()
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				rec := submitOne(ctx, cl, st.input(in), lr.sp)
				rec.input = in
				mu.Lock()
				lr.recs = append(lr.recs, rec)
				if !traced && len(lr.recs) == rssJobs {
					lr.rss = peakRSSMiB()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.seconds = time.Since(start).Seconds()
	lr.gd.add(g0, readGo())
	if traced {
		lr.heap = hs.peakMiB()
	} else if lr.rss == 0 {
		lr.rss = peakRSSMiB() // fewer than rssJobs jobs ran
	}
	if genErr != nil {
		return nil, genErr
	}
	if lr.m1, err = mcl.MetricsJSON(ctx); err != nil {
		return nil, err
	}
	// Outside the timed region: fetch every job's served bytes.
	for _, r := range lr.recs {
		if r.err != nil || r.id == "" {
			continue
		}
		if _, ok := lr.raw[r.id]; ok {
			continue
		}
		res, err := mcl.Get(ctx, r.id)
		if err != nil {
			return nil, fmt.Errorf("fetching %s: %w", r.id, err)
		}
		lr.raw[r.id] = [2][]byte{res.RawReport, res.RawRepair}
	}
	return lr, nil
}

// submitOne runs one job through the daemon: POST, then the SSE stream to
// its verdict event.
func submitOne(ctx context.Context, cl *client.Client, in *jobSpec, sp *spans) *jobRec {
	t0 := time.Now()
	rec := &jobRec{start: t0}
	root := sp.begin("job", -1)
	defer sp.end(root)
	s := sp.begin("service.submit", root)
	res, err := cl.Submit(ctx, in.request(), false)
	sp.end(s)
	if err != nil {
		rec.err = err
		return rec
	}
	if res.Status.ID == "" {
		rec.err = fmt.Errorf("submit answered %d without a job", res.Code)
		return rec
	}
	rec.id = res.Status.ID
	var tv time.Time
	s = sp.begin("service.stream", root)
	sr, err := cl.StreamToVerdict(ctx, rec.id, func(ev client.StreamEvent) error {
		if ev.Type == service.EventVerdict {
			tv = time.Now()
		}
		return nil
	})
	sp.end(s)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.total = tv.Sub(t0)
	rec.verdict = sr.Verdict
	for _, n := range sr.Events {
		rec.events += n
	}
	rec.gaps = sr.Events[service.EventGap]
	rec.rounds = sr.Events[service.EventRound]
	return rec
}

// reference is the in-process answer for one input.
type reference struct {
	verdict string
	report  []byte // normalized report JSON
	repair  []byte // normalized repair payload JSON (repair jobs)
	asm     string // patched assembly (repair jobs)
}

// normReport is the served report with its wall time zeroed, re-encoded.
func normReport(raw []byte) ([]byte, error) {
	var rj glift.ReportJSON
	if err := json.Unmarshal(raw, &rj); err != nil {
		return nil, err
	}
	rj.Stats.WallNanos = 0
	return json.Marshal(rj)
}

// normRepair is the served repair payload with its report's wall time
// zeroed, re-encoded, plus its patched assembly.
func normRepair(raw []byte) ([]byte, string, error) {
	var rj repair.ResultJSON
	if err := json.Unmarshal(raw, &rj); err != nil {
		return nil, "", err
	}
	rj.Report.Stats.WallNanos = 0
	b, err := json.Marshal(rj)
	return b, rj.PatchedAsm, err
}

// computeReference answers one input in-process with the same engine
// inputs the daemon compiles: the target's assembler, the request's policy,
// default options (repair: the shared round loop).
func computeReference(ctx context.Context, in *jobSpec, designs map[string]*mcu.Design, sp *spans) (*reference, error) {
	pol := in.gliftPolicy()
	if in.repairCode != nil {
		spec := &repair.Spec{Source: in.source, Policy: pol, CodeRanges: in.repairCode, Options: &glift.Options{Workers: 1}}
		if sp != nil {
			// A round lasts from its start (RoundProgress) to its record
			// (OnRound): the round's engine build and run.
			var start time.Duration
			spec.RoundProgress = func(int) func(glift.Progress) { start = sp.since(); return nil }
			spec.OnRound = func(repair.Round) { sp.add("repair.round", -1, start, sp.since()) }
		}
		res, err := repair.Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		rj := res.JSON()
		rj.Report.Stats.WallNanos = 0
		b, err := json.Marshal(rj)
		if err != nil {
			return nil, err
		}
		return &reference{verdict: res.Report.Verdict().String(), repair: b, asm: rj.PatchedAsm}, nil
	}
	tgt, err := target.Parse(in.target)
	if err != nil {
		return nil, err
	}
	id := sp.begin("asm.assemble", -1)
	img, err := tgt.Assemble(in.source)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("glift.engine_build", -1)
	e, err := glift.NewEngineOn(designs[tgt.Name], img, &pol, &glift.Options{Workers: 1})
	sp.end(id)
	if err != nil {
		return nil, err
	}
	rep := e.RunContext(ctx)
	j := rep.JSON()
	j.Stats.WallNanos = 0
	b, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	return &reference{verdict: rep.Verdict().String(), report: b}, nil
}

// references computes the reference of every input on two goroutines,
// recording assembler and engine-construction spans when sp is non-nil.
func references(ctx context.Context, inputs []*jobSpec, designs map[string]*mcu.Design, sp *spans) ([]*reference, error) {
	refs := make([]*reference, len(inputs))
	errs := make([]error, len(inputs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(inputs) {
					return
				}
				refs[i], errs[i] = computeReference(ctx, inputs[i], designs, sp)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for input %d (%s): %w", i, inputs[i].class, err)
		}
	}
	return refs, nil
}

// check verifies every submission of one loop against the references and
// against its input's first answer, counting each into res.
func (lr *loopRun) check(res *result, refs []*reference, inputs []*jobSpec) {
	firstBytes := map[int][2][]byte{}
	for _, r := range lr.recs {
		res.attempted++
		if err := lr.checkOne(r, refs[r.input], inputs[r.input], firstBytes); err != nil {
			res.fail("job %s (%s input %d): %v", r.id, inputs[r.input].class, r.input, err)
		}
	}
}

func (lr *loopRun) checkOne(r *jobRec, ref *reference, in *jobSpec, firstBytes map[int][2][]byte) error {
	if r.err != nil {
		return r.err
	}
	if r.verdict.Verdict != ref.verdict {
		return fmt.Errorf("verdict %s, reference %s", r.verdict.Verdict, ref.verdict)
	}
	raw := lr.raw[r.id]
	if in.repairCode != nil {
		got, patched, err := normRepair(raw[1])
		if err != nil {
			return fmt.Errorf("decoding repair payload: %w", err)
		}
		if patched != ref.asm {
			return errors.New("patched assembly differs from the reference")
		}
		if !bytes.Equal(got, ref.repair) {
			return fmt.Errorf("repair payload differs from the reference:\n%s\n%s", got, ref.repair)
		}
	} else {
		got, err := normReport(raw[0])
		if err != nil {
			return fmt.Errorf("decoding report: %w", err)
		}
		if !bytes.Equal(got, ref.report) {
			return fmt.Errorf("report differs from the reference:\n%s\n%s", got, ref.report)
		}
	}
	if fb, ok := firstBytes[r.input]; !ok {
		firstBytes[r.input] = raw
	} else if !bytes.Equal(fb[0], raw[0]) || !bytes.Equal(fb[1], raw[1]) {
		return errors.New("a repeat's answer differs from the input's first answer")
	}
	return nil
}

// split classifies the loop's successful submissions: cold (the daemon ran
// the engine for it), cached (answered from the cache or store), coalesced
// (attached to an identical job already in flight).
// A job ID shared by several submissions was executed for the earliest.
func (lr *loopRun) split() (cold, cached []*jobRec, coalesced int) {
	owner := map[string]*jobRec{}
	for _, r := range lr.recs {
		if r.err == nil && !r.verdict.CacheHit {
			if o, ok := owner[r.id]; !ok || r.start.Before(o.start) {
				owner[r.id] = r
			}
		}
	}
	for _, r := range lr.recs {
		switch {
		case r.err != nil:
		case r.verdict.CacheHit:
			cached = append(cached, r)
		case owner[r.id] == r:
			cold = append(cold, r)
		default:
			coalesced++
		}
	}
	return
}

// done lists the submissions that reached a verdict.
func (lr *loopRun) done() []*jobRec {
	var out []*jobRec
	for _, r := range lr.recs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func seconds(recs []*jobRec, val func(*jobRec) float64) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, val(r))
	}
	return out
}

func runGliftdMixed(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	scratch, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	rvTarget, err := target.Parse("rv32")
	if err != nil {
		return nil, err
	}
	setupSpans := newSpans()
	designs := map[string]*mcu.Design{}
	// Every set-up's daemon stays up until timing ends, so no set-up pays
	// for stopping the one before it; the last one serves the loop.
	var started []*daemon
	setups, err := timedSetups(setupRuns, func() error {
		for _, t := range []*target.Target{target.Default(), rvTarget} {
			d, err := buildDesign(t, setupSpans)
			if err != nil {
				return err
			}
			designs[t.Name] = d
		}
		dm, err := startDaemon(ctx, designs[target.Default().Name], scratch, setupSpans)
		if err == nil {
			started = append(started, dm)
		}
		return err
	})
	for _, d := range started[:max(len(started)-1, 0)] {
		d.stop()
	}
	if err != nil {
		if len(started) > 0 {
			started[len(started)-1].stop()
		}
		return nil, err
	}
	dm := started[len(started)-1]
	res.info["store_fs"] = fsName(dm.dir)

	phase := func(dm *daemon, traced bool) (*loopRun, *stream, error) {
		defer dm.stop()
		if err := warmUp(ctx, dm.base); err != nil {
			return nil, nil, err
		}
		st, err := newStream(cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		lr, err := runLoop(ctx, cfg, dm, st, traced)
		return lr, st, err
	}
	plain, pst, err := phase(dm, false)
	if err != nil {
		return nil, err
	}
	var traced *loopRun
	tst := pst
	if cfg.trace {
		dm2, err := startDaemon(ctx, designs[target.Default().Name], scratch, nil)
		if err != nil {
			return nil, err
		}
		if traced, tst, err = phase(dm2, true); err != nil {
			return nil, err
		}
	}

	// Outside every timed region: the in-process references for every
	// input either phase used (both phases draw the same seeded stream).
	inputs := pst.inputs
	if len(tst.inputs) > len(inputs) {
		inputs = tst.inputs
	}
	for i := range min(len(pst.inputs), len(tst.inputs)) {
		if pst.inputs[i].key != tst.inputs[i].key {
			return nil, fmt.Errorf("traced and untraced streams diverge at input %d", i)
		}
	}
	var refSpans *spans
	if cfg.trace {
		refSpans = newSpans()
	}
	refs, err := references(ctx, inputs, designs, refSpans)
	if err != nil {
		return nil, err
	}
	plain.check(res, refs, inputs)
	if traced != nil {
		traced.check(res, refs, inputs)
	}

	cold, cached, coalesced := plain.split()
	jobsPerS := ratio(float64(len(plain.done())), plain.seconds)
	all := seconds(plain.done(), func(r *jobRec) float64 { return r.total.Seconds() })
	res.e2e["setup_s"] = median(setups)
	res.e2e["cycles_per_s"] = ratio(float64(plain.m1.CyclesSimulated-plain.m0.CyclesSimulated), plain.seconds)
	res.e2e["ops_per_s"] = jobsPerS
	res.e2e["op_p50_s"] = median(all)
	res.e2e["peak_rss_mib"] = plain.rss

	res.add("setup_s", median(setups), "s", len(setups))
	res.addTiming("cold_job", seconds(cold, func(r *jobRec) float64 { return r.total.Seconds() }))
	res.addTiming("cached_job", seconds(cached, func(r *jobRec) float64 { return r.total.Seconds() }))
	res.add("jobs_per_s", jobsPerS, "jobs/s", len(plain.recs))
	res.add("job_p50_s", median(all), "s", len(all))
	res.add("engine_cycles_per_s", res.e2e["cycles_per_s"], "cycles/s", 0)
	res.add("peak_rss_mib", plain.rss, "MiB", 0)
	res.info["repeat_share"] = pst.repeatShare()
	res.info["cache_hit_ratio"] = cacheHitRatio(plain)
	res.info["coalesced"] = coalesced
	res.info["distinct_inputs"] = len(pst.inputs)
	res.info["jobs"] = len(plain.recs)

	if traced != nil {
		traced.layerMetrics(res, tst, setupSpans, refSpans)
		res.layer["trace.overhead_ratio"] = ratio(jobsPerS, ratio(float64(len(traced.done())), traced.seconds))
	}
	res.finishTable()
	return res, nil
}

func cacheHitRatio(lr *loopRun) float64 {
	return ratio(float64(lr.m1.CacheHits-lr.m0.CacheHits), float64(lr.m1.JobsSubmitted-lr.m0.JobsSubmitted))
}

// layerMetrics fills the per-layer metrics of a traced gliftd phase.
func (lr *loopRun) layerMetrics(res *result, st *stream, setupSpans, refSpans *spans) {
	l := res.layer
	l["mcu.design_build_s"] = median(setupSpans.durations("mcu.design_build"))
	l["service.start_s"] = median(setupSpans.durations("service.start"))
	l["asm.assemble_s"] = median(refSpans.durations("asm.assemble"))
	l["glift.engine_build_s_p50"] = median(refSpans.durations("glift.engine_build"))

	cold, cached, _ := lr.split()
	p := func(name string, xs []float64) {
		l[name+"_p50"] = median(xs)
		if v, ok := tail(xs, 0.90); ok {
			l[name+"_p90"] = v
		}
	}
	ns := func(recs []*jobRec, f func(service.StageTimesJSON) int64) []float64 {
		return seconds(recs, func(r *jobRec) float64 { return float64(f(r.verdict.Stages)) / 1e9 })
	}
	p("service.queue_wait_s", ns(cold, func(s service.StageTimesJSON) int64 { return s.QueueWaitNS }))
	p("service.engine_run_s", ns(cold, func(s service.StageTimesJSON) int64 { return s.EngineRunNS }))
	p("service.persist_s", ns(cold, func(s service.StageTimesJSON) int64 { return s.PersistNS }))
	p("service.cache_hit_s", ns(cached, func(s service.StageTimesJSON) int64 { return s.CacheHitNS }))
	l["service.transport_s_p50"] = median(seconds(lr.done(), func(r *jobRec) float64 {
		return (r.total - time.Duration(r.verdict.Stages.TotalNS)).Seconds()
	}))
	events, gaps := 0, 0
	for _, r := range lr.recs {
		events += r.events
		gaps += r.gaps
	}
	l["stream.events_per_job"] = ratio(float64(events), float64(len(lr.recs)))
	l["stream.gap_events"] = float64(gaps)

	m0, m1 := lr.m0, lr.m1
	l["service.cache_hit_ratio"] = cacheHitRatio(lr)
	l["service.coalesced"] = float64(m1.JobsCoalesced - m0.JobsCoalesced)
	l["service.engine_runs"] = float64(m1.EngineRuns - m0.EngineRuns)
	l["service.rejected"] = float64(m1.JobsRejected - m0.JobsRejected + m1.DeadlineShed - m0.DeadlineShed + m1.QuotaRejected - m0.QuotaRejected)
	l["store.puts"] = float64(m1.StorePuts - m0.StorePuts)
	l["store.bytes"] = float64(m1.StoreBytes - m0.StoreBytes)
	l["input.repeat_share"] = st.repeatShare()

	// Repair: round events per executed repair job; round times from the
	// in-process reference runs of the same inputs.
	var rounds, repairJobs float64
	for _, r := range cold {
		if st.input(r.input).repairCode != nil {
			repairJobs++
			rounds += float64(r.rounds)
		}
	}
	l["repair.rounds_per_job"] = ratio(rounds, repairJobs)
	l["repair.round_engine_s_p50"] = median(refSpans.durations("repair.round"))
	l["repair.masked_stores"] = ratio(float64(m1.RepairMaskedStores-m0.RepairMaskedStores), float64(m1.RepairJobs-m0.RepairJobs))

	l["go.alloc_bytes_per_job"] = ratio(lr.gd.allocBytes, float64(len(lr.recs)))
	l["go.gc_cpu_share"] = lr.gd.gcShare()
	l["go.heap_peak_mib"] = lr.heap
	res.add("traced_jobs_per_s", ratio(float64(len(lr.done())), lr.seconds), "jobs/s", len(lr.recs))
}
