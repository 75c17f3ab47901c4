package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: the helpers must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	if got := median(seq(10)); got != 5 {
		t.Errorf("median of 1..10 = %v, want 5 (nearest rank 5)", got)
	}
	if got := median(seq(11)); got != 6 {
		t.Errorf("median of 1..11 = %v, want 6", got)
	}
	if got := median(seq(3)); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2 (a median needs no tail)", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // rank 90, 10 beyond
		{99, 0.90, 90, false},   // rank ceil(89.1) = 90, only 9 beyond
		{1000, 0.99, 990, true}, // rank 990, 10 beyond
		{999, 0.99, 990, false}, // rank ceil(989.01) = 990, 9 beyond
		{250, 0.90, 225, true},
	} {
		got, ok := tail(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("tail(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := tail(nil, 0.9); ok {
		t.Error("tail of no samples reported")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) span {
		return span{start: time.Duration(a) * time.Millisecond, end: time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("no children: self %v, want 100ms", got)
	}
	// Overlapping children count once; a child running past the parent's
	// end is clipped to it.
	kids := []span{ms(50, 60), ms(10, 20), ms(15, 30), ms(90, 120)}
	if got := selfTime(parent, kids); got != 60*time.Millisecond {
		t.Errorf("self %v, want 60ms (100 - [10,30] - [50,60] - [90,100])", got)
	}

	r := newSpans()
	root := r.begin("run", -1)
	base := r.get(root).start
	r.add("path", root, base+time.Millisecond, base+2*time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	r.end(root)
	self := r.selfTimes("run")[root]
	whole := r.get(root).dur().Seconds()
	if d := whole - self; d < 0.0009 || d > 0.0011 {
		t.Errorf("recorded self time %v of %v: child not subtracted", self, whole)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step: the names, units and workloads it declares are the ones
// the command prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, command %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// runCLI runs the command and decodes its result line.
func runCLI(t *testing.T, args ...string) finalJSON {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), append(args, "--root", ".."), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var f finalJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &f); err != nil {
		t.Fatalf("exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", code, err, out.String(), errb.String())
	}
	if code != 0 || !f.Correct || f.Failed != 0 || f.Attempted == 0 {
		t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, f, errb.String())
	}
	return f
}

func wantMetrics(t *testing.T, f finalJSON, defs []metricDef) {
	t.Helper()
	if len(f.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(f.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := f.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v, present %v; want unit %s", d.name, m, ok, d.unit)
		}
	}
}

// The smoke runs use one-second phases; each checks every output it makes.

func TestSmokeAnalyzeStraight(t *testing.T) {
	f := runCLI(t, "--workload", "analyze-straight", "--seconds", "1", "--trace", "1")
	wantMetrics(t, f, perLayer)
	if f.Metrics["glift.paths"].Value == 0 || f.Metrics["spec.steals"].Value != 0 {
		t.Errorf("paths %v, steals %v: want paths and no speculation on straight-line programs",
			f.Metrics["glift.paths"].Value, f.Metrics["spec.steals"].Value)
	}
}

// TestSmokeAnalyzeBranchy runs the branchy path on one of its programs (a
// whole pass takes about 15 seconds).
func TestSmokeAnalyzeBranchy(t *testing.T) {
	progs, err := scaffoldPrograms("..", true)
	if err != nil {
		t.Fatal(err)
	}
	var one []program
	for _, p := range progs {
		if p.name == "Viterbi" {
			one = append(one, p)
		}
	}
	res, err := runAnalyze(context.Background(), config{seed: 1, seconds: time.Second, trace: true, root: ".."}, one)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("failures: %v", res.failures)
	}
	for _, m := range []string{"glift.paths", "glift.forks", "glift.path_s_p50", "glift.between_paths_s", "spec.steals", "trace.overhead_ratio"} {
		if res.layer[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.layer[m])
		}
	}
	wantMetrics(t, res.final(false), endToEnd)
}

func TestSmokeGliftdMixed(t *testing.T) {
	f := runCLI(t, "--workload", "gliftd-mixed", "--seconds", "1", "--trace", "1")
	wantMetrics(t, f, perLayer)
	for _, m := range []string{"service.engine_runs", "store.puts", "service.cache_hit_ratio", "repair.rounds_per_job", "repair.round_engine_s_p50"} {
		if f.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, f.Metrics[m].Value)
		}
	}
}

func TestSmokeFaultCampaign(t *testing.T) {
	f := runCLI(t, "--workload", "fault-campaign", "--seconds", "1", "--trace", "0")
	wantMetrics(t, f, endToEnd)
	if f.Attempted < 3*64 {
		t.Errorf("%d scenarios, want at least three 64-lane batches", f.Attempted)
	}
}
