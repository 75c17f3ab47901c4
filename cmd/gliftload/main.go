// gliftload is the streaming latency gate and chaos harness for gliftd. It
// has two modes.
//
// Stream mode (-addr) submits to a running daemon without server-side wait
// and consumes each job's SSE event stream to its terminal verdict event,
// reporting per-stage latency quantiles (p50/p90/p99) from the verdict
// events' stage timings plus the client-observed submit-to-verdict total.
// With -p99-budget the run exits non-zero when the observed
// submit-to-verdict p99 exceeds the budget — the CI latency gate:
//
//	gliftload -addr http://127.0.0.1:8430 -n 200 -p99-budget 2s
//
// Chaos mode (-chaos) spawns its own gliftd (-gliftd path to the binary)
// and proves the daemon's durability and admission invariants under induced
// faults, exiting non-zero on any integrity violation:
//
//	gliftload -chaos -gliftd ./gliftd -n 96 -kills 3
//
// The three chaos phases, each checked against an in-process cold-run
// reference (report bytes normalized over stats.wall_ns/peak_mem_bytes,
// which measure the run, not the result):
//
//  1. kill -9: submitters ride through repeated SIGKILL + restart cycles
//     (store writes artificially slowed to widen the torn-write window).
//     Invariant: once a verdict is acknowledged, every later response for
//     that program — including across restarts — is byte-identical, and
//     after a final restart every acknowledged result is served from the
//     recovered store without re-running the engine. A torn or lost record
//     would break one of these.
//  2. disk-full: a store too small for any record degrades to memory-only
//     (put errors counted, zero entries) with verdicts unchanged.
//  3. 503 injection: with a percentage of submissions spuriously rejected,
//     the client's backoff discipline still lands every job, verdicts
//     unchanged.
//
// Stream mode and the concurrent chaos phases share one submission driver
// (submitAll), and every chaos answer is judged by one cold-run comparison
// (coldRun.check).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/service"
	"repro/internal/service/client"
)

var (
	addr     = flag.String("addr", "", "stream mode: base URL of a running gliftd (e.g. http://127.0.0.1:8430)")
	gliftd   = flag.String("gliftd", "", "chaos mode: path to the gliftd binary to spawn")
	nJobs    = flag.Int("n", 200, "total submissions")
	conc     = flag.Int("c", 8, "concurrent submitters")
	tenants  = flag.Int("tenants", 1, "distinct X-Tenant values to spread submissions across")
	distinct = flag.Int("distinct", 12, "distinct programs in the corpus")
	chaos    = flag.Bool("chaos", false, "run the chaos harness against a spawned daemon")
	kills    = flag.Int("kills", 3, "chaos: kill -9 + restart cycles during the submission storm")
	killGap  = flag.Duration("kill-interval", 250*time.Millisecond, "chaos: pause between kill cycles")
	storeDir = flag.String("store-dir", "", "chaos: store directory (default: a fresh temp dir)")
	verbose  = flag.Bool("v", false, "log every acknowledgment")

	p99Budget   = flag.Duration("p99-budget", 0, "stream mode: fail if submit-to-verdict p99 exceeds this (0: no gate)")
	streamDump  = flag.String("stream-dump", "", "stream mode: append every received event to this file as NDJSON")
	streamTrace = flag.Int("stream-trace", 0, "stream mode: request every N-th engine trace event per job (0: off)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: gliftload [flags] (see -help)")
		os.Exit(2)
	}
	var err error
	switch {
	case *chaos:
		if *gliftd == "" {
			fmt.Fprintln(os.Stderr, "gliftload: -chaos requires -gliftd (path to the daemon binary)")
			os.Exit(2)
		}
		err = runChaos()
	case *addr != "":
		err = runStream(*addr)
	default:
		fmt.Fprintln(os.Stderr, "gliftload: give -addr (stream mode) or -chaos -gliftd (chaos mode)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gliftload: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("gliftload: OK")
}

// ---- corpus ----------------------------------------------------------------

// prog is one corpus entry: a distinct program plus its policy.
type prog struct {
	name string
	req  service.JobRequest
}

// corpus builds n distinct programs: ~2/3 verifying (distinct immediates),
// ~1/3 violating (the Figure 9 unmasked-store shape with distinct stored
// constants), so both verdict paths and both HTTP outcomes are exercised.
func corpus(n int) ([]prog, error) {
	progs := make([]prog, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			src := fmt.Sprintf(`
start:  jmp tstart
tstart: mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #%d, 0(r14)
done:   jmp done
tend:   nop
`, 500+i)
			img, err := asm.AssembleSource(src)
			if err != nil {
				return nil, fmt.Errorf("corpus viol %d: %w", i, err)
			}
			progs = append(progs, prog{
				name: fmt.Sprintf("viol-%d", i),
				req: service.JobRequest{
					Source: src,
					Policy: service.PolicyRequest{
						Name:           fmt.Sprintf("viol-%d", i),
						TaintedInPorts: []int{0},
						TaintedCode:    []service.RangeRequest{{Lo: img.MustSymbol("tstart"), Hi: img.MustSymbol("tend")}},
						TaintedData:    []service.RangeRequest{{Lo: 0x0400, Hi: 0x0800}},
					},
				},
			})
			continue
		}
		progs = append(progs, prog{
			name: fmt.Sprintf("clean-%d", i),
			req: service.JobRequest{
				Source: fmt.Sprintf("start: mov #0x0280, sp\n        mov #%d, r10\nloop:   jmp loop\n", i+1),
				Policy: service.PolicyRequest{Name: fmt.Sprintf("clean-%d", i)},
			},
		})
	}
	return progs, nil
}

// normalize strips the run-measurement fields (wall time, peak memory) from
// a served report so independently produced runs of the same job compare
// equal; everything else in the report is deterministic and must match.
func normalize(raw json.RawMessage) ([]byte, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty report")
	}
	var rj glift.ReportJSON
	if err := json.Unmarshal(raw, &rj); err != nil {
		return nil, err
	}
	rj.Stats.WallNanos = 0
	rj.Stats.PeakMemBytes = 0
	return json.Marshal(rj)
}

// submitAll is the submission driver: n submissions from c concurrent
// submitters, submission i carrying program i mod len(progs). Submitter w
// has its own client on cfg with the X-Tenant label tenant-(w mod
// -tenants), and hands each program to do.
func submitAll(progs []prog, n, c int, cfg client.Config, do func(cl *client.Client, p *prog)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		cfg.Tenant = fmt.Sprintf("tenant-%d", w%*tenants)
		cl := client.New(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(cl, &progs[i%len(progs)])
			}
		}()
	}
	wg.Wait()
}

// ---- stream mode -----------------------------------------------------------

// stageSamples accumulates latency samples per stage under one lock; the
// stream workers feed it, the final report drains it.
type stageSamples struct {
	mu      sync.Mutex
	samples map[string][]time.Duration
	events  map[string]int
	lost    uint64
}

func (s *stageSamples) add(stage string, d time.Duration) {
	s.mu.Lock()
	if s.samples == nil {
		s.samples = make(map[string][]time.Duration)
	}
	s.samples[stage] = append(s.samples[stage], d)
	s.mu.Unlock()
}

func (s *stageSamples) count(res *client.StreamResult) {
	s.mu.Lock()
	if s.events == nil {
		s.events = make(map[string]int)
	}
	for typ, n := range res.Events {
		s.events[typ] += n
	}
	s.lost += res.Lost
	s.mu.Unlock()
}

// quantile returns the q-th sample by the nearest-rank method (exact over
// the collected samples, not an estimate). sorted must be ascending.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// submitToVerdict is the synthetic stage for the client-observed total
// (submission POST to verdict event received) — the quantity the p99
// budget gates, because it is what a caller actually experiences.
const submitToVerdict = "submit-to-verdict"

func runStream(base string) error {
	progs, err := corpus(*distinct)
	if err != nil {
		return err
	}
	var sink func(client.StreamEvent) error
	if *streamDump != "" {
		f, err := os.OpenFile(*streamDump, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		dump := json.NewEncoder(f)
		var dumpMu sync.Mutex
		sink = func(ev client.StreamEvent) error {
			dumpMu.Lock()
			defer dumpMu.Unlock()
			return dump.Encode(ev)
		}
	}

	agg := &stageSamples{}
	var failures atomic.Int64
	start := time.Now()
	submitAll(progs, *nJobs, *conc, client.Config{BaseURL: base}, func(cl *client.Client, p *prog) {
		req := p.req
		req.Options.StreamTrace = *streamTrace
		t0 := time.Now()
		res, err := cl.Submit(context.Background(), &req, false)
		if err != nil || res.Status.ID == "" {
			failures.Add(1)
			return
		}
		sr, err := cl.StreamToVerdict(context.Background(), res.Status.ID, sink)
		if err != nil {
			failures.Add(1)
			return
		}
		agg.add(submitToVerdict, time.Since(t0))
		agg.count(sr)
		st := sr.Verdict.Stages
		for stage, ns := range map[string]int64{
			service.StageQueueWait: st.QueueWaitNS,
			service.StageEngineRun: st.EngineRunNS,
			service.StagePersist:   st.PersistNS,
			service.StageCacheHit:  st.CacheHitNS,
		} {
			if ns > 0 {
				agg.add(stage, time.Duration(ns))
			}
		}
		if *verbose {
			total := 0
			for _, n := range sr.Events {
				total += n
			}
			fmt.Printf("  verdict %s: %s (%d events, %d lost)\n",
				sr.Verdict.ID, sr.Verdict.Verdict, total, sr.Lost)
		}
	})
	dur := time.Since(start)

	done := len(agg.samples[submitToVerdict])
	fmt.Printf("gliftload: stream: %d/%d jobs to verdict in %s (%.1f jobs/s, %d submitters)\n",
		done, *nJobs, dur.Round(time.Millisecond), float64(done)/dur.Seconds(), *conc)
	if n := failures.Load(); n > 0 {
		fmt.Printf("  failed:   %d\n", n)
	}
	fmt.Printf("  events:  ")
	for _, typ := range []string{service.EventState, service.EventProgress, service.EventTrace, service.EventGap, service.EventVerdict} {
		fmt.Printf(" %s=%d", typ, agg.events[typ])
	}
	fmt.Printf(" (lost %d)\n", agg.lost)
	stages := []string{service.StageQueueWait, service.StageEngineRun, service.StagePersist, service.StageCacheHit, submitToVerdict}
	var p99Total time.Duration
	for _, stage := range stages {
		samples := agg.samples[stage]
		if len(samples) == 0 {
			continue
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		p50, p90, p99 := quantile(samples, 0.50), quantile(samples, 0.90), quantile(samples, 0.99)
		fmt.Printf("  %-17s n=%-5d p50=%-10s p90=%-10s p99=%s\n",
			stage, len(samples), p50.Round(time.Microsecond), p90.Round(time.Microsecond), p99.Round(time.Microsecond))
		if stage == submitToVerdict {
			p99Total = p99
		}
	}
	if done == 0 {
		return fmt.Errorf("stream: no job ever reached its verdict")
	}
	if *p99Budget > 0 {
		if p99Total > *p99Budget {
			return fmt.Errorf("stream: submit-to-verdict p99 %s exceeds budget %s",
				p99Total.Round(time.Microsecond), *p99Budget)
		}
		fmt.Printf("gliftload: p99 gate: %s within budget %s\n", p99Total.Round(time.Microsecond), *p99Budget)
	}
	return nil
}

// ---- chaos mode ------------------------------------------------------------

// daemon is one spawned gliftd process.
type daemon struct {
	bin  string
	addr string // host:port, stable across restarts
	args []string
	cmd  *exec.Cmd
}

// spawn starts a gliftd with two workers and a 64-job queue plus extra
// flags, on a free localhost port.
func spawn(extra ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{bin: *gliftd, addr: addr, args: append([]string{"-workers", "2", "-queue", "64"}, extra...)}
	return d, d.start()
}

func (d *daemon) base() string { return "http://" + d.addr }

func (d *daemon) start() error {
	args := append([]string{"-addr", d.addr}, d.args...)
	cmd := exec.Command(d.bin, args...)
	if *verbose {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd = cmd
	probe := client.New(client.Config{BaseURL: d.base(), HTTPClient: &http.Client{Timeout: time.Second}})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ok := probe.Healthy(ctx)
		cancel()
		if ok {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	d.kill9()
	return fmt.Errorf("daemon on %s never became healthy", d.addr)
}

// kill9 delivers SIGKILL — no shutdown path runs, which is the point.
func (d *daemon) kill9() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill() //nolint:errcheck
	d.cmd.Wait()         //nolint:errcheck
	d.cmd = nil
}

// metrics reads the daemon's /metrics.json, retrying briefly.
func (d *daemon) metrics() (service.MetricsJSON, error) {
	cl := client.New(client.Config{BaseURL: d.base(), MaxAttempts: 50,
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 250 * time.Millisecond})
	return cl.MetricsJSON(context.Background())
}

// coldRun is the truth every chaos phase must reproduce: each program's
// HTTP status and normalized report bytes from a fresh in-process,
// memory-only service.
type coldRun map[string]coldAnswer

type coldAnswer struct {
	code   int
	report []byte
}

// reference computes the cold run: a fresh memory-only service answers
// every corpus program once.
func reference(progs []prog) (coldRun, error) {
	srv, err := service.New(service.Config{Workers: 2, QueueDepth: 64, EngineWorkers: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l) //nolint:errcheck
	defer hs.Close()

	cl := client.New(client.Config{BaseURL: "http://" + l.Addr().String()})
	cold := make(coldRun, len(progs))
	for i := range progs {
		res, err := cl.Submit(context.Background(), &progs[i].req, true)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", progs[i].name, err)
		}
		norm, err := normalize(res.RawReport)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", progs[i].name, err)
		}
		cold[progs[i].name] = coldAnswer{code: res.Code, report: norm}
	}
	return cold, nil
}

// check is the cold-run comparison: it reports whether an answer for p has
// the cold run's HTTP status and normalized report bytes, recording an
// integrity violation tagged with phase when it does not.
func (cold coldRun) check(phase string, p *prog, res *client.Result) bool {
	want := cold[p.name]
	if res.Code != want.code {
		violate("[%s] %s: HTTP %d, cold run said %d", phase, p.name, res.Code, want.code)
		return false
	}
	norm, err := normalize(res.RawReport)
	if err != nil {
		violate("[%s] %s: report unparseable: %v", phase, p.name, err)
		return false
	}
	if !bytes.Equal(norm, want.report) {
		violate("[%s] %s: report differs from cold run\n  cold %s\n  got  %s", phase, p.name, want.report, norm)
		return false
	}
	return true
}

// violations counts integrity failures across all phases; any non-zero
// total fails the run.
var violations atomic.Int64

func violate(format string, args ...any) {
	violations.Add(1)
	fmt.Fprintf(os.Stderr, "INTEGRITY VIOLATION: "+format+"\n", args...)
}

func runChaos() error {
	progs, err := corpus(*distinct)
	if err != nil {
		return err
	}
	fmt.Printf("gliftload: chaos harness: %d jobs over %d programs, %d submitters, %d kill cycles\n",
		*nJobs, len(progs), *conc, *kills)

	fmt.Println("gliftload: computing in-process cold-run reference...")
	cold, err := reference(progs)
	if err != nil {
		return err
	}
	for _, phase := range []func([]prog, coldRun) error{phaseKill9, phaseDiskFull, phaseInject503} {
		if err := phase(progs, cold); err != nil {
			return err
		}
	}
	if n := violations.Load(); n > 0 {
		return fmt.Errorf("%d integrity violations", n)
	}
	return nil
}

// phaseKill9 runs the submission storm against a daemon that is repeatedly
// SIGKILLed mid-flight with slowed store writes, then proves recovery.
func phaseKill9(progs []prog, cold coldRun) error {
	dir := *storeDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "gliftload-chaos-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	d, err := spawn("-store-dir", dir, "-chaos-slow-write", "25ms")
	if err != nil {
		return err
	}
	defer d.kill9()
	fmt.Printf("gliftload: [kill -9] daemon on %s, store %s\n", d.addr, dir)

	// The killer: SIGKILL + restart cycles while the storm runs.
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for k := 0; k < *kills; k++ {
			time.Sleep(*killGap)
			d.kill9()
			fmt.Printf("gliftload: [kill -9] cycle %d/%d: killed, restarting\n", k+1, *kills)
			if err := d.start(); err != nil {
				violate("restart %d failed: %v", k+1, err)
				return
			}
		}
	}()

	// Acknowledged results: name -> exact served bytes. Every later
	// response for the same program must match exactly.
	var mu sync.Mutex
	acked := make(map[string][]byte)
	submitAll(progs, *nJobs, *conc, client.Config{BaseURL: d.base(), MaxAttempts: 200,
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
		func(cl *client.Client, p *prog) {
			res, err := cl.Submit(context.Background(), &p.req, true)
			if err != nil {
				// Gave up during an outage window: not an integrity
				// violation, just lost coverage; another pass of the
				// same program will land.
				return
			}
			if !cold.check("kill -9", p, res) {
				return
			}
			if *verbose {
				fmt.Printf("  ack %s (HTTP %d, %d attempts)\n", p.name, res.Code, res.Attempts)
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := acked[p.name]; !ok {
				acked[p.name] = append([]byte(nil), res.RawReport...)
			} else if !bytes.Equal(prev, res.RawReport) {
				violate("[kill -9] %s: served bytes changed after acknowledgment\n  first %s\n  now   %s",
					p.name, prev, res.RawReport)
			}
		})
	<-killerDone

	// Final restart: the memory cache is gone; everything acknowledged must
	// come back from the recovered store, byte-identical, engine untouched.
	d.kill9()
	if err := d.start(); err != nil {
		return err
	}
	pre, err := d.metrics()
	if err != nil {
		return err
	}
	fmt.Printf("gliftload: [kill -9] storm done: %d/%d programs acknowledged; recovered store: %d entries\n",
		len(acked), len(progs), pre.StoreEntries)
	if len(acked) == 0 {
		violate("no job was ever acknowledged — the harness proved nothing")
	}
	cl := client.New(client.Config{BaseURL: d.base(), MaxAttempts: 50,
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 250 * time.Millisecond})
	for i := range progs {
		p := &progs[i]
		want, ok := acked[p.name]
		if !ok {
			continue
		}
		res, err := cl.Submit(context.Background(), &p.req, true)
		if err != nil {
			violate("[kill -9 recovery] %s: fetch failed: %v", p.name, err)
			continue
		}
		if !res.Status.CacheHit {
			violate("[kill -9 recovery] %s: acknowledged result was NOT recovered (engine re-ran after restart)", p.name)
		}
		if !bytes.Equal(res.RawReport, want) {
			violate("[kill -9 recovery] %s: recovered bytes differ from acknowledged bytes\n  acked %s\n  now   %s",
				p.name, want, res.RawReport)
		}
		cold.check("kill -9 recovery", p, res)
	}
	post, err := d.metrics()
	if err != nil {
		return err
	}
	if reruns := post.EngineRuns; reruns != 0 {
		violate("post-recovery resubmissions ran the engine %d times; recovery is incomplete", reruns)
	}
	fmt.Printf("gliftload: [kill -9] verified %d recovered results byte-identical (0 engine re-runs)\n", len(acked))
	return nil
}

// phaseDiskFull proves a store too small for any record degrades to
// memory-only operation with correct verdicts.
func phaseDiskFull(progs []prog, cold coldRun) error {
	dir, err := os.MkdirTemp("", "gliftload-full-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := spawn("-store-dir", dir, "-store-max-bytes", "128")
	if err != nil {
		return err
	}
	defer d.kill9()
	fmt.Printf("gliftload: [disk-full] daemon on %s, store capped at 128 bytes\n", d.addr)

	cl := client.New(client.Config{BaseURL: d.base(), MaxAttempts: 20})
	for i := range progs {
		res, err := cl.Submit(context.Background(), &progs[i].req, true)
		if err != nil {
			violate("[disk-full] %s: %v", progs[i].name, err)
			continue
		}
		cold.check("disk-full", &progs[i], res)
	}
	m, err := d.metrics()
	if err != nil {
		return err
	}
	if m.StorePutErrors == 0 {
		violate("[disk-full] no store put errors recorded — the cap never bit")
	}
	if m.StoreEntries != 0 {
		violate("[disk-full] %d entries in a store too small for any record", m.StoreEntries)
	}
	fmt.Printf("gliftload: [disk-full] %d programs correct with durability off (%d put errors, 0 entries)\n",
		len(progs), m.StorePutErrors)
	return nil
}

// phaseInject503 proves the client discipline absorbs spurious 503s with no
// effect on outcomes.
func phaseInject503(progs []prog, cold coldRun) error {
	d, err := spawn("-chaos-inject-503", "40")
	if err != nil {
		return err
	}
	defer d.kill9()
	fmt.Printf("gliftload: [inject-503] daemon on %s, 40%% spurious rejections\n", d.addr)

	var attempts atomic.Int64
	submitAll(progs, *nJobs, *conc, client.Config{BaseURL: d.base(), MaxAttempts: 100,
		BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
		func(cl *client.Client, p *prog) {
			res, err := cl.Submit(context.Background(), &p.req, true)
			if err != nil {
				violate("[inject-503] %s: %v", p.name, err)
				return
			}
			attempts.Add(int64(res.Attempts))
			cold.check("inject-503", p, res)
		})
	m, err := d.metrics()
	if err != nil {
		return err
	}
	if m.ChaosInjected == 0 {
		violate("[inject-503] injection percent never fired")
	}
	fmt.Printf("gliftload: [inject-503] %d jobs landed through %d injected 503s (%.2f attempts/job)\n",
		*nJobs, m.ChaosInjected, float64(attempts.Load())/float64(*nJobs))
	return nil
}
