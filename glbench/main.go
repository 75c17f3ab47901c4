// Command glbench is the repository's end-to-end and per-layer benchmark.
// It drives the public entry points a user of this repository hits —
// glift.AnalyzeContextOn with gliftcheck's default options, an in-process
// gliftd driven over HTTP and server-sent events through
// internal/service/client, and fault.RunBatch — on four seeded workloads,
// checks every output for correctness, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	glbench --workload analyze-branchy --seed 1 --seconds 20 --trace 0
//	glbench --workload all --seed 1 --seconds 20
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the workload runs once untraced and once traced, and the result carries
// the per-layer metrics of the traced run plus the tracing overhead. Any
// correctness failure makes the command exit 1. See README.md for why each
// workload exists and which layer metric should move which end-to-end one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads is the benchmark's workload table, in run order for "all".
var workloads = []struct {
	name string
	run  func(ctx context.Context, cfg config) (*result, error)
}{
	{"analyze-branchy", runAnalyzeBranchy},
	{"analyze-straight", runAnalyzeStraight},
	{"gliftd-mixed", runGliftdMixed},
	{"fault-campaign", runFaultCampaign},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// root is the repository checkout: the source of the committed golden
	// digests and the home of the scratch directory.
	root string
}

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, which keeps one slow first set-up (cold caches, heap growth) from
// deciding the figure.
const setupRuns = 15

// scratch returns the directory the benchmark may write to.
func (c config) scratch() (string, error) {
	dir := filepath.Join(c.root, ".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("glbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: analyze-branchy, analyze-straight, gliftd-mixed, fault-campaign, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1: also run traced and report the per-layer metrics")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "glbench: want --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: *root}

	if *name == "all" {
		return runAll(ctx, cfg, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		res, err := w.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "glbench: %s: %v\n", w.name, err)
			return 1
		}
		res.printTable(stdout, w.name)
		res.printInfo(stdout, w.name, cfg)
		line, err := json.Marshal(res.final(cfg.trace))
		if err != nil {
			fmt.Fprintf(stderr, "glbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.correct() {
			res.printFailures(stderr, w.name)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "glbench: unknown workload %q\n", *name)
	return 2
}

// runAll runs every workload in turn, prints each one's table, and ends with
// one JSON line whose metrics are keyed "<workload>/<metric>".
func runAll(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	all := finalJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range workloads {
		res, err := w.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "glbench: %s: %v\n", w.name, err)
			return 1
		}
		res.printTable(stdout, w.name)
		res.printInfo(stdout, w.name, cfg)
		f := res.final(cfg.trace)
		all.Correct = all.Correct && f.Correct
		all.Attempted += f.Attempted
		all.Failed += f.Failed
		for k, v := range f.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
		if !res.correct() {
			res.printFailures(stderr, w.name)
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "glbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// result is one workload run: correctness accounting, the metrics and the
// human-readable table in per-workload names.
type result struct {
	attempted, failed int
	failures          []string
	// e2e and layer hold the declared metrics by name (see catalog.go).
	e2e, layer map[string]float64
	// table is the end-to-end view in per-workload names, with sample counts.
	table []row
	// info records inputs and machine facts that are not metrics.
	info map[string]any
}

// row is one line of the human-readable table. n is the sample count of a
// timing (0 for a value that is not a sample statistic); a tail timing with
// too few samples beyond it is printed as unavailable.
type row struct {
	name  string
	value float64
	unit  string
	n     int
	ok    bool
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// fail records one failed or refused operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// add appends a table row for a value that is always reportable.
func (r *result) add(name string, v float64, unit string, n int) {
	r.table = append(r.table, row{name: name, value: v, unit: unit, n: n, ok: true})
}

// addTiming appends the median and p90 rows of a latency sample.
func (r *result) addTiming(name string, xs []float64) {
	r.add(name+"_p50_s", median(xs), "s", len(xs))
	v, ok := tail(xs, 0.90)
	r.table = append(r.table, row{name: name + "_p90_s", value: v, unit: "s", n: len(xs), ok: ok})
}

// finishTable appends the rows every workload reports.
func (r *result) finishTable() {
	r.add("failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
}

func (r *result) printTable(w io.Writer, workload string) {
	for _, x := range r.table {
		val := fmt.Sprintf("%.6g", x.value)
		if !x.ok {
			val = fmt.Sprintf("unavailable (needs %d samples beyond the tail)", minTail)
		}
		count := ""
		if x.n > 0 {
			count = fmt.Sprintf(" (n=%d)", x.n)
		}
		fmt.Fprintf(w, "%s %-24s %s %s%s\n", workload, x.name, val, x.unit, count)
	}
}

// printInfo prints the run's inputs and machine as one JSON line.
func (r *result) printInfo(w io.Writer, workload string, cfg config) {
	info := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
	for k, v := range r.info {
		info[k] = v
	}
	b, err := json.Marshal(info)
	if err == nil {
		fmt.Fprintf(w, "info %s\n", b)
	}
}

func (r *result) printFailures(w io.Writer, workload string) {
	for _, f := range r.failures {
		fmt.Fprintf(w, "glbench: %s: FAIL %s\n", workload, f)
	}
	fmt.Fprintf(w, "glbench: %s: %d of %d operations failed\n", workload, r.failed, r.attempted)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// final is the result line: every end-to-end metric untraced, every
// per-layer metric traced. A metric a workload does not exercise reads 0.
func (r *result) final(traced bool) finalJSON {
	out := finalJSON{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricJSON{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
