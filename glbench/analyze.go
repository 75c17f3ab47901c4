package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/rv32"
	"repro/internal/target"
)

// program is one analysis input: assembly text for a target, the policy
// built from its assembled image, and the outcome it must produce.
type program struct {
	name   string
	tgt    *target.Target
	src    string
	policy func(img *asm.Image) (*glift.Policy, error)
	// digest is the committed golden report digest (msp430 scaffold
	// benchmarks); empty for programs checked by verdict alone.
	digest string
	// expectViolations is the required verdict when digest is empty.
	expectViolations bool
}

// digestsPath is the committed digest file TestGoldenReportDigests pins.
const digestsPath = "internal/glift/testdata/msp430_report_digests.json"

func loadDigests(root string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, digestsPath))
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	out := map[string]string{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestsPath, err)
	}
	return out, nil
}

// scaffoldPrograms returns the Table 1 scaffold benchmarks whose Table 2
// expectation equals violating, in the paper's order.
func scaffoldPrograms(root string, violating bool) ([]program, error) {
	digests, err := loadDigests(root)
	if err != nil {
		return nil, err
	}
	var out []program
	for _, b := range bench.All() {
		if b.ExpectC1C2 != violating {
			continue
		}
		d, ok := digests[b.Name]
		if !ok {
			return nil, fmt.Errorf("%s has no committed digest in %s", b.Name, digestsPath)
		}
		out = append(out, program{name: b.Name, tgt: target.Default(), src: bench.Source(b), policy: scaffoldPolicy, digest: d})
	}
	return out, nil
}

// scaffoldPolicy is the evaluation policy of every scaffold benchmark, as
// bench.BuildUnmodified builds it: P1IN is the tainted source, P2OUT a
// legal tainted sink, the task's code is tainted and the data partition is
// allocated to it.
func scaffoldPolicy(img *asm.Image) (*glift.Policy, error) {
	lo, err := img.ResolveSymbol("task_start")
	if err != nil {
		return nil, err
	}
	hi, err := img.ResolveSymbol("task_end")
	if err != nil {
		return nil, err
	}
	return &glift.Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
		TaintedCode:     []glift.AddrRange{{Lo: lo, Hi: hi}},
		TaintedData:     []glift.AddrRange{{Lo: bench.PartLo, Hi: bench.PartLo + bench.PartSize}},
	}, nil
}

// rv32Programs returns the rv32 smoke programs under their own policies.
func rv32Programs() ([]program, error) {
	tgt, err := target.Parse("rv32")
	if err != nil {
		return nil, err
	}
	var out []program
	for _, b := range rv32.Benchmarks() {
		pol := b.Policy()
		out = append(out, program{
			name: "rv32/" + b.Name, tgt: tgt, src: b.Src,
			policy:           func(*asm.Image) (*glift.Policy, error) { return pol, nil },
			expectViolations: b.ExpectViolations,
		})
	}
	return out, nil
}

func runAnalyzeBranchy(ctx context.Context, cfg config) (*result, error) {
	progs, err := scaffoldPrograms(cfg.root, true)
	if err != nil {
		return nil, err
	}
	return runAnalyze(ctx, cfg, progs)
}

func runAnalyzeStraight(ctx context.Context, cfg config) (*result, error) {
	progs, err := scaffoldPrograms(cfg.root, false)
	if err != nil {
		return nil, err
	}
	smoke, err := rv32Programs()
	if err != nil {
		return nil, err
	}
	return runAnalyze(ctx, cfg, append(progs, smoke...))
}

// analyzeSetup is the state set-up leaves: one design per target and the
// assembled programs with their policies.
type analyzeSetup struct {
	designs map[string]*mcu.Design
	imgs    []*asm.Image
	pols    []*glift.Policy
}

// setupAnalyze builds a fresh design for every target the programs need
// (levelized, so the first engine build pays no lazy set-up) and assembles
// every program.
func setupAnalyze(progs []program, sp *spans) (*analyzeSetup, error) {
	st := &analyzeSetup{designs: map[string]*mcu.Design{}}
	for _, p := range progs {
		if _, ok := st.designs[p.tgt.Name]; !ok {
			d, err := buildDesign(p.tgt, sp)
			if err != nil {
				return nil, err
			}
			st.designs[p.tgt.Name] = d
		}
	}
	for _, p := range progs {
		id := sp.begin("asm.assemble", -1)
		img, err := p.tgt.Assemble(p.src)
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("assembling %s: %w", p.name, err)
		}
		pol, err := p.policy(img)
		if err != nil {
			return nil, fmt.Errorf("policy of %s: %w", p.name, err)
		}
		st.imgs = append(st.imgs, img)
		st.pols = append(st.pols, pol)
	}
	return st, nil
}

// buildDesign builds and levelizes a fresh, unshared design of tgt.
func buildDesign(tgt *target.Target, sp *spans) (*mcu.Design, error) {
	id := sp.begin("mcu.design_build", -1)
	defer sp.end(id)
	d := tgt.NewDesign()
	if _, err := d.NL.Levelize(); err != nil {
		return nil, fmt.Errorf("levelizing the %s design: %w", tgt.Name, err)
	}
	return d, nil
}

// timedSetups runs setup k times and returns each run's seconds; the
// caller keeps whatever the last run left.
func timedSetups(k int, setup func() error) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// reportDigest is TestGoldenReportDigests' normalization: the report's wire
// form with stats.wall_ns zeroed, two-space indented, SHA-256.
func reportDigest(rep *glift.Report) (string, error) {
	j := rep.JSON()
	j.Stats.WallNanos = 0
	b, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// check compares one report with the program's required outcome.
func (p *program) check(rep *glift.Report) error {
	if p.digest != "" {
		got, err := reportDigest(rep)
		if err != nil {
			return err
		}
		if got != p.digest {
			return fmt.Errorf("%s: report digest %s, committed %s", p.name, got, p.digest)
		}
		return nil
	}
	want := glift.Verified
	if p.expectViolations {
		want = glift.Violations
	}
	if got := rep.Verdict(); got != want {
		return fmt.Errorf("%s: verdict %s, want %s", p.name, got, want)
	}
	return nil
}

// analysis is one analysed program occurrence.
type analysis struct {
	prog    int
	seconds float64
	cycles  uint64
	// Traced analyses only: the RunContext span and the speculation
	// counters of the last Done=false progress snapshot.
	runSpan int
	sched   glift.SchedStats
}

// analyzePhase is one measured pass sequence, untraced or traced.
type analyzePhase struct {
	runs []analysis
	// first holds one report per program; exploration counts repeat
	// exactly, so any occurrence stands for all.
	first []*glift.Report
	sp    *spans
	gd    goDelta
	heap  float64
}

// runAnalyzePhase analyses the programs pass after pass, each pass in a
// seeded order and every analysis from a fresh engine, until cfg.seconds
// have passed and every program has been analysed at least once. The next
// analysis is skipped when its previous duration would overrun the budget.
func runAnalyzePhase(ctx context.Context, cfg config, progs []program, st *analyzeSetup, res *result, traced bool) *analyzePhase {
	ph := &analyzePhase{first: make([]*glift.Report, len(progs))}
	if traced {
		ph.sp = newSpans()
		hs := startHeapSampler()
		defer func() { ph.heap = hs.peakMiB() }()
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x616e616c797a65))
	last := make([]float64, len(progs))
	tried := make([]bool, len(progs))
	seen := 0
	start := time.Now()
	for {
		for _, i := range rng.Perm(len(progs)) {
			if seen == len(progs) {
				el := time.Since(start).Seconds()
				if el >= cfg.seconds.Seconds() || el+last[i] > cfg.seconds.Seconds() {
					return ph
				}
			}
			a, rep, err := ph.analyze(ctx, progs, st, i)
			res.attempted++
			if !tried[i] {
				tried[i] = true
				seen++
			}
			last[i] = a.seconds
			if err == nil {
				err = progs[i].check(rep)
			}
			if err != nil {
				res.fail("%v", err)
				continue
			}
			if ph.first[i] == nil {
				ph.first[i] = rep
			}
			ph.runs = append(ph.runs, a)
		}
	}
}

// analyze runs one analysis. Untraced, it is the gliftcheck call:
// AnalyzeContextOn with default options. Traced, it makes the same two
// calls AnalyzeContextOn makes (NewEngineOn, RunContext) under spans and
// installs Options.Tracer and Options.Progress.
func (ph *analyzePhase) analyze(ctx context.Context, progs []program, st *analyzeSetup, i int) (analysis, *glift.Report, error) {
	d := st.designs[progs[i].tgt.Name]
	a := analysis{prog: i, runSpan: -1}
	if ph.sp == nil {
		t0 := time.Now()
		rep, err := glift.AnalyzeContextOn(ctx, d, st.imgs[i], st.pols[i], &glift.Options{})
		a.seconds = time.Since(t0).Seconds()
		if err != nil {
			return a, nil, fmt.Errorf("%s: %w", progs[i].name, err)
		}
		a.cycles = rep.Stats.Cycles
		return a, rep, nil
	}

	var paths [][2]time.Duration
	var pathStart time.Duration
	opt := glift.Options{
		Tracer: func(ev glift.TraceEvent) {
			switch ev.Kind {
			case glift.EvPathStart:
				pathStart = time.Duration(ev.WallNS)
			case glift.EvPathEnd:
				paths = append(paths, [2]time.Duration{pathStart, time.Duration(ev.WallNS)})
			}
		},
		Progress: func(p glift.Progress) {
			// The Done snapshot's scheduler counters read zero (the pool
			// stops before the final emission), so keep the last one
			// before it.
			if !p.Done {
				a.sched = p.Sched
			}
		},
	}
	g0 := readGo()
	root := ph.sp.begin("analysis", -1)
	b := ph.sp.begin("glift.engine_build", root)
	e, err := glift.NewEngineOn(d, st.imgs[i], st.pols[i], &opt)
	ph.sp.end(b)
	if err != nil {
		ph.sp.end(root)
		return a, nil, fmt.Errorf("%s: %w", progs[i].name, err)
	}
	a.runSpan = ph.sp.begin("glift.run", root)
	rep := e.RunContext(ctx)
	ph.sp.end(a.runSpan)
	ph.sp.end(root)
	ph.gd.add(g0, readGo())
	base := ph.sp.get(a.runSpan).start
	for _, p := range paths {
		ph.sp.add("glift.path", a.runSpan, base+p[0], base+p[1])
	}
	a.seconds = ph.sp.get(root).dur().Seconds()
	a.cycles = rep.Stats.Cycles
	return a, rep, nil
}

// perProgram groups a per-analysis value by program.
func (ph *analyzePhase) perProgram(n int, val func(analysis) float64) [][]float64 {
	out := make([][]float64, n)
	for _, a := range ph.runs {
		out[a.prog] = append(out[a.prog], val(a))
	}
	return out
}

// throughput is the phase's committed symbolic cycles and analyses per
// host second over the fixed program set, each program weighted once at
// its median analysis time, plus the median of those medians.
func (ph *analyzePhase) throughput(n int) (cyclesPerS, opsPerS, opP50 float64) {
	meds := make([]float64, n)
	cycles := 0.0
	for p, xs := range ph.perProgram(n, func(a analysis) float64 { return a.seconds }) {
		meds[p] = median(xs)
		if ph.first[p] != nil {
			cycles += float64(ph.first[p].Stats.Cycles)
		}
	}
	total := sum(meds)
	return ratio(cycles, total), ratio(float64(n), total), median(meds)
}

func runAnalyze(ctx context.Context, cfg config, progs []program) (*result, error) {
	res := newResult()
	setupSpans := newSpans()
	var st *analyzeSetup
	setups, err := timedSetups(setupRuns, func() error {
		var err error
		st, err = setupAnalyze(progs, setupSpans)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Warm-up outside every timed region: one analysis per target design
	// finishes the remaining lazy initialisation (shared lookup tables,
	// first-touch page faults).
	warmed := map[string]bool{}
	for i, p := range progs {
		if !warmed[p.tgt.Name] {
			warmed[p.tgt.Name] = true
			if _, err := glift.AnalyzeContextOn(ctx, st.designs[p.tgt.Name], st.imgs[i], st.pols[i], &glift.Options{}); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", p.name, err)
			}
		}
	}

	res.info["rss_reset"] = resetPeakRSS()
	plain := runAnalyzePhase(ctx, cfg, progs, st, res, false)
	rss := peakRSSMiB()
	cps, ops, p50 := plain.throughput(len(progs))
	res.e2e["setup_s"] = median(setups)
	res.e2e["cycles_per_s"] = cps
	res.e2e["ops_per_s"] = ops
	res.e2e["op_p50_s"] = p50
	res.e2e["peak_rss_mib"] = rss

	res.add("setup_s", median(setups), "s", len(setups))
	res.add("sym_cycles_per_s", cps, "cycles/s", len(plain.runs))
	res.add("analyses_per_s", ops, "1/s", len(plain.runs))
	res.add("analysis_p50_s", p50, "s", len(progs))
	res.add("peak_rss_mib", rss, "MiB", 0)
	res.info["programs"] = len(progs)
	res.info["analyses"] = len(plain.runs)

	if cfg.trace {
		traced := runAnalyzePhase(ctx, cfg, progs, st, res, true)
		traced.layerMetrics(res, progs, setupSpans)
		tcps, _, _ := traced.throughput(len(progs))
		res.layer["trace.overhead_ratio"] = ratio(cps, tcps)
		res.add("traced_sym_cycles_per_s", tcps, "cycles/s", len(traced.runs))
	}
	res.finishTable()
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced analyze phase.
func (ph *analyzePhase) layerMetrics(res *result, progs []program, setupSpans *spans) {
	n := len(progs)
	l := res.layer
	l["mcu.design_build_s"] = median(setupSpans.durations("mcu.design_build"))
	l["asm.assemble_s"] = median(setupSpans.durations("asm.assemble"))
	l["glift.engine_build_s_p50"] = median(ph.sp.durations("glift.engine_build"))

	cycles := 0.0
	runSecs := 0.0
	for _, a := range ph.runs {
		cycles += float64(a.cycles)
		runSecs += ph.sp.get(a.runSpan).dur().Seconds()
	}
	l["glift.ns_per_cycle"] = ratio(runSecs*1e9, cycles)
	pathSecs := ph.sp.durations("glift.path")
	l["glift.path_s_p50"] = median(pathSecs)
	if v, ok := tail(pathSecs, 0.99); ok {
		l["glift.path_s_p99"] = v
	}
	self := ph.sp.selfTimes("glift.run")
	// Per-pass figures: each program's mean over its occurrences, summed
	// over the program set.
	perPass := func(val func(analysis) float64) float64 {
		t := 0.0
		for _, xs := range ph.perProgram(n, val) {
			t += mean(xs)
		}
		return t
	}
	l["glift.between_paths_s"] = perPass(func(a analysis) float64 { return self[a.runSpan] })
	l["spec.steals"] = perPass(func(a analysis) float64 { return float64(a.sched.Steals) })
	l["spec.used"] = perPass(func(a analysis) float64 { return float64(a.sched.SpecUsed) })
	l["spec.wasted"] = perPass(func(a analysis) float64 { return float64(a.sched.SpecWasted) })
	l["spec.useful_ratio"] = ratio(l["spec.used"], l["spec.steals"])

	var st glift.Stats
	for _, rep := range ph.first {
		s := rep.Stats
		st.Cycles += s.Cycles
		st.Paths += s.Paths
		st.Forks += s.Forks
		st.Prunes += s.Prunes
		st.Merges += s.Merges
		st.TableStates += s.TableStates
		st.PeakMemBytes = max(st.PeakMemBytes, s.PeakMemBytes)
	}
	l["glift.cycles"] = float64(st.Cycles)
	l["glift.paths"] = float64(st.Paths)
	l["glift.forks"] = float64(st.Forks)
	l["glift.prunes"] = float64(st.Prunes)
	l["glift.merges"] = float64(st.Merges)
	l["glift.table_states"] = float64(st.TableStates)
	l["glift.peak_table_bytes"] = float64(st.PeakMemBytes)
	l["glift.prune_ratio"] = ratio(float64(st.Prunes), float64(st.Paths))
	l["glift.cycles_per_path"] = ratio(float64(st.Cycles), float64(st.Paths))

	l["go.alloc_bytes_per_cycle"] = ratio(ph.gd.allocBytes, cycles)
	l["go.gc_cpu_share"] = ph.gd.gcShare()
	l["go.heap_peak_mib"] = ph.heap
}
