package glift_test

// Differential testing of the engine's "performance knobs change nothing"
// contract: Options.Workers and Options.Backend change wall-clock time and
// nothing else, and the content-addressed job cache in internal/service
// relies on that guarantee (both are excluded from job keys). This harness
// enforces it the strong way — every scaffold benchmark is analyzed under a
// sweep of (backend, workers) configurations and every report must
// serialize byte-identically to the reference (interpreter, sequential)
// once the wall-time field (the one documented exception) is zeroed.

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/sim"
)

// normalizedReportJSON serializes a report with wall-time zeroed, the only
// field allowed to differ between configurations.
func normalizedReportJSON(t *testing.T, rep *glift.Report) []byte {
	t.Helper()
	j := rep.JSON()
	j.Stats.WallNanos = 0
	out, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return out
}

// violationSet order-normalizes a report's violations for set comparison.
func violationSet(rep *glift.Report) []string {
	out := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		out = append(out, fmt.Sprintf("%s@%#04x: %s", v.Kind, v.PC, v.Detail))
	}
	sort.Strings(out)
	return out
}

// analysisConfig is one point in the (backend, workers) sweep.
type analysisConfig struct {
	backend sim.BackendKind
	workers int
}

func (c analysisConfig) String() string {
	return fmt.Sprintf("%s/workers=%d", c.backend, c.workers)
}

// refConfig is the differential reference: the interpreter backend run
// sequentially, the simplest configuration the engine supports.
var refConfig = analysisConfig{backend: sim.BackendInterp, workers: 1}

// sweepConfigs are the configurations compared against refConfig: the
// parallel interpreter and the compiled backend at both worker counts.
var sweepConfigs = []analysisConfig{
	{backend: sim.BackendInterp, workers: 4},
	{backend: sim.BackendCompiled, workers: 1},
	{backend: sim.BackendCompiled, workers: 4},
}

func analyzeConfig(t *testing.T, bt *bench.Built, c analysisConfig) *glift.Report {
	t.Helper()
	rep, err := glift.Analyze(bt.Img, bt.Policy, &glift.Options{Workers: c.workers, Backend: c.backend})
	if err != nil {
		t.Fatalf("analyze %s (%s): %v", bt.Bench.Name, c, err)
	}
	return rep
}

// TestDifferentialScaffoldBenchmarks runs every scaffold benchmark under the
// full (backend, workers) sweep and asserts identical verdicts,
// order-normalized violation sets, conservative-table sizes, and finally
// byte-identical reports modulo wall time (which subsumes the weaker checks;
// they run first only to localize a failure).
func TestDifferentialScaffoldBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			bt, err := bench.BuildUnmodified(b)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			ref := analyzeConfig(t, bt, refConfig)
			refJSON := normalizedReportJSON(t, ref)
			for _, c := range sweepConfigs {
				got := analyzeConfig(t, bt, c)

				if rv, gv := ref.Verdict(), got.Verdict(); rv != gv {
					t.Errorf("%s: verdict mismatch: %s %v, %s %v", c, refConfig, rv, c, gv)
				}
				rvs, gvs := violationSet(ref), violationSet(got)
				if len(rvs) != len(gvs) {
					t.Errorf("%s: violation count mismatch: %s %d, %s %d", c, refConfig, len(rvs), c, len(gvs))
				} else {
					for i := range rvs {
						if rvs[i] != gvs[i] {
							t.Errorf("%s: violation set mismatch at %d:\n  %s: %s\n  %s: %s", c, i, refConfig, rvs[i], c, gvs[i])
						}
					}
				}
				if rt, gt := ref.Stats.TableStates, got.Stats.TableStates; rt != gt {
					t.Errorf("%s: table size mismatch: %s %d, %s %d", c, refConfig, rt, c, gt)
				}

				gotJSON := normalizedReportJSON(t, got)
				if string(refJSON) != string(gotJSON) {
					t.Errorf("%s: report differs beyond wall time:\n--- %s ---\n%s\n--- %s ---\n%s",
						c, refConfig, refJSON, c, gotJSON)
				}
			}
		})
	}
}

// TestDifferentialWorkerSweep covers worker counts beyond the canonical
// 1-vs-4 pair on a fork-heavy benchmark, including pools larger than the
// path count, on both backends. Each configuration is a named subtest, run
// in turn, so -v prints its time.
func TestDifferentialWorkerSweep(t *testing.T) {
	bt, err := bench.BuildUnmodified(bench.ByName("binSearch"))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := normalizedReportJSON(t, analyzeConfig(t, bt, refConfig))
	for _, be := range sim.Backends() {
		for _, w := range []int{2, 3, 8} {
			c := analysisConfig{backend: be, workers: w}
			t.Run(c.String(), func(t *testing.T) {
				got := normalizedReportJSON(t, analyzeConfig(t, bt, c))
				if string(got) != string(want) {
					t.Errorf("%s report differs from %s:\n%s\nvs\n%s", c, refConfig, got, want)
				}
			})
		}
	}
}

// TestParallelDoneSchedStats: the Done snapshot of a parallel run carries
// the stopped speculation pool's final scheduler counters — never below the
// last intermediate snapshot, so a consumer folding the cumulative feed
// into counters (gliftd's glift_engine_spec_*_total) keeps the run's final
// interval — and reports no worker still busy.
func TestParallelDoneSchedStats(t *testing.T) {
	bt, err := bench.BuildUnmodified(bench.ByName("binSearch"))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var last, done glift.Progress
	opt := &glift.Options{Workers: 2, Progress: func(p glift.Progress) {
		if p.Done {
			done = p
		} else {
			last = p
		}
	}}
	if _, err := glift.Analyze(bt.Img, bt.Policy, opt); err != nil {
		t.Fatal(err)
	}
	if !done.Done || last.Stats.Cycles == 0 {
		t.Fatalf("want intermediate and Done snapshots (last cycles %d, done %v)", last.Stats.Cycles, done.Done)
	}
	d, l := done.Sched, last.Sched
	t.Logf("last intermediate %+v, Done %+v", l, d)
	for _, c := range []struct {
		name       string
		done, last uint64
	}{{"Steals", d.Steals, l.Steals}, {"SpecUsed", d.SpecUsed, l.SpecUsed}, {"SpecWasted", d.SpecWasted, l.SpecWasted}} {
		if c.done == 0 || c.done < c.last {
			t.Errorf("Done %s = %d, last intermediate %d: want non-zero and no lower", c.name, c.done, c.last)
		}
	}
	if d.Workers != 1 || d.Busy != 0 {
		t.Errorf("Done sched Workers=%d Busy=%d, want 1 and 0", d.Workers, d.Busy)
	}
}
