// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation. Run everything once with
//
//	go test -bench . -benchtime 1x
//
// Each benchmark both exercises the code path that regenerates the artifact
// and reports the headline quantities as custom metrics, so `go test
// -bench` output doubles as the experiment log (EXPERIMENTS.md records the
// paper-vs-measured comparison).
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/energy"
	"repro/internal/glift"
	"repro/internal/logic"
	"repro/internal/motivate"
	"repro/internal/rtos"
)

// BenchmarkFigure1_NANDTruthTable regenerates the GLIFT truth table.
func BenchmarkFigure1_NANDTruthTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := logic.NANDTruthTable()
		if len(rows) != 16 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigures2to5_Motivation analyzes the four Section 3 scenarios.
func BenchmarkFigures2to5_Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := motivate.RunAll(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 4 {
			b.Fatal("want 4 scenarios")
		}
	}
}

// BenchmarkFigure7_ExecutionTree regenerates the symbolic execution tree of
// the illustrative example.
func BenchmarkFigure7_ExecutionTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tree, err := glift.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(tree.Common) != 3 || len(tree.Left) != 3 || len(tree.Right) != 3 {
			b.Fatal("bad tree shape")
		}
	}
}

// analyzeMicro analyzes one Figure 8 or Figure 9 micro-benchmark.
func analyzeMicro(b *testing.B, s *motivate.Scenario) *glift.Report {
	b.Helper()
	res, err := motivate.Run(s, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Report
}

// BenchmarkFigure8_WatchdogRecovery runs both Figure 8 micro-benchmarks:
// the unprotected task must violate condition 1 and the protected one must
// verify clean.
func BenchmarkFigure8_WatchdogRecovery(b *testing.B) {
	fig := motivate.Figure8()
	for i := 0; i < b.N; i++ {
		unprot := analyzeMicro(b, fig[0])
		if len(unprot.ByKind(glift.C1TaintedState)) == 0 {
			b.Fatal("unprotected variant should violate C1")
		}
		prot := analyzeMicro(b, fig[1])
		if !prot.Secure() {
			b.Fatalf("protected variant should verify: %v", prot.Violations)
		}
	}
}

// BenchmarkFigure9_MaskedStore runs both Figure 9 micro-benchmarks: the
// unmasked store must be flagged as a memory escape, the masked one not.
func BenchmarkFigure9_MaskedStore(b *testing.B) {
	fig := motivate.Figure9()
	for i := 0; i < b.N; i++ {
		unmasked := analyzeMicro(b, fig[0])
		if len(unmasked.ByKind(glift.C2MemoryEscape)) == 0 {
			b.Fatal("unmasked store should be flagged")
		}
		masked := analyzeMicro(b, fig[1])
		if len(masked.ByKind(glift.C2MemoryEscape)) != 0 {
			b.Fatal("masked store should verify")
		}
	}
}

// Shared evaluations for the table benchmarks (expensive; computed once).
var (
	evalOnce sync.Once
	evals    []*bench.Evaluation
	evalErr  error
)

func evaluations(b *testing.B) []*bench.Evaluation {
	b.Helper()
	evalOnce.Do(func() {
		for _, bm := range bench.All() {
			ev, err := bench.Evaluate(bm)
			if err != nil {
				evalErr = err
				return
			}
			evals = append(evals, ev)
		}
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return evals
}

// BenchmarkTable2_Violations regenerates Table 2: which benchmarks violate
// sufficient conditions 1 and 2 before and after modification.
func BenchmarkTable2_Violations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Tables(evaluations(b))
		violating := 0
		for _, r := range rows {
			if r.UnmodC1 && r.UnmodC2 {
				violating++
			}
			if (r.UnmodC1 || r.UnmodC2) != r.ExpectC1C2 {
				b.Fatalf("%s: Table 2 mismatch", r.Name)
			}
			if r.ModC1 || r.ModC2 {
				b.Fatalf("%s: modified program still violates", r.Name)
			}
		}
		b.ReportMetric(float64(violating), "violating-benchmarks")
	}
}

// BenchmarkTable3_Overheads regenerates Table 3 and the 3.3x headline.
func BenchmarkTable3_Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := bench.Tables(evaluations(b))
		var sumWith, sumWithout float64
		for _, r := range rows {
			sumWith += r.With
			sumWithout += r.Without
		}
		b.ReportMetric(sumWith/float64(len(rows)), "avg-with-%")
		b.ReportMetric(sumWithout/float64(len(rows)), "avg-without-%")
		b.ReportMetric(bench.ReductionFactor(rows), "reduction-x")
	}
}

// BenchmarkTable4_ProcessorSurvey regenerates the static survey table
// (printing handled by cmd/experiments; here we only assert its shape).
func BenchmarkTable4_ProcessorSurvey(b *testing.B) {
	processors := []string{"ARM Cortex-M0", "ARM Cortex-M3", "Atmel ATxmega128A4",
		"Freescale/NXP MC13224v", "Intel Quark-D1000", "Jennic/NXP JN5169",
		"SiLab Si2012", "TI MSP430"}
	for i := 0; i < b.N; i++ {
		if len(processors) != 8 {
			b.Fatal("Table 4 rows")
		}
	}
}

// BenchmarkAnalysisTime reports per-benchmark analysis wall time (the
// paper's Footnote 4 discusses analysis tractability).
func BenchmarkAnalysisTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var totalNanos int64
		var totalCycles uint64
		for _, ev := range evaluations(b) {
			totalNanos += ev.UnmodReport.Stats.WallNanos
			totalCycles += ev.UnmodReport.Stats.Cycles
		}
		b.ReportMetric(float64(totalNanos)/1e9, "total-analysis-s")
		b.ReportMetric(float64(totalCycles), "symbolic-cycles")
	}
}

// BenchmarkStarLogicBaseline reproduces Footnote 8: the application-
// agnostic *-logic analysis taints the majority of gates (including the
// watchdog) on applications with tainted control dependences.
func BenchmarkStarLogicBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bt, err := bench.BuildUnmodified(bench.ByName("binSearch"))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := glift.StarLogic(bt.Img, bt.Policy, 64)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.PCBecameUnknown || !rep.WatchdogTainted {
			b.Fatal("*-logic should degrade on binSearch")
		}
		b.ReportMetric(100*rep.GateTaintFraction, "gates-tainted-%")
	}
}

// BenchmarkRTOSUseCase reproduces Section 7.3 end to end.
func BenchmarkRTOSUseCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		uc, err := rtos.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !uc.ProtectedReport.Secure() {
			b.Fatal("protected RTOS system should verify")
		}
		b.ReportMetric(uc.OverheadPercent(), "overhead-%")
	}
}

// BenchmarkEnergyOverhead reports the average energy overhead of the
// analysis-guided protections (the paper's abstract reports 15%).
func BenchmarkEnergyOverhead(b *testing.B) {
	model := energy.Default
	for i := 0; i < b.N; i++ {
		var sum float64
		n := 0
		for _, ev := range evaluations(b) {
			if ev.WithMeasure == nil {
				continue
			}
			sum += model.OverheadPercent(
				ev.UnmodMeasure.PeriodCycles, ev.UnmodMeasure.Toggles,
				ev.WithMeasure.PeriodCycles, ev.WithMeasure.Toggles)
			n++
		}
		b.ReportMetric(sum/float64(n), "avg-energy-overhead-%")
	}
}

// BenchmarkIPC reports each benchmark's CPI (the paper: 1.25-1.39).
func BenchmarkIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, ev := range evaluations(b) {
			sum += ev.UnmodMeasure.CPI()
		}
		b.ReportMetric(sum/float64(len(evaluations(b))), "avg-cpi")
	}
}

// BenchmarkAblation_WidenThreshold contrasts immediate conservative
// widening (the naive reading of Algorithm 1, WidenAfter=1) against this
// implementation's precise unrolling below a visit threshold: immediate
// widening makes loop pointers unknown and flags clean code.
func BenchmarkAblation_WidenThreshold(b *testing.B) {
	bt, err := bench.BuildUnmodified(bench.ByName("intFilt"))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eager, err := glift.Analyze(bt.Img, bt.Policy, &glift.Options{WidenAfter: 1})
		if err != nil {
			b.Fatal(err)
		}
		precise, err := glift.Analyze(bt.Img, bt.Policy, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !precise.Secure() {
			b.Fatal("intFilt should verify under precise unrolling")
		}
		b.ReportMetric(float64(len(eager.Violations)), "eager-false-positives")
		b.ReportMetric(float64(eager.Stats.Cycles), "eager-cycles")
		b.ReportMetric(float64(precise.Stats.Cycles), "precise-cycles")
	}
}

// BenchmarkGateSimThroughput measures the raw gate-level simulator speed in
// machine cycles per second (concrete execution of tea8).
func BenchmarkGateSimThroughput(b *testing.B) {
	bt, err := bench.BuildUnmodified(bench.ByName("tea8"))
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := bench.Measure(bt, 0x7777, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles += 2 * m.PeriodCycles
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

// BenchmarkAssembler measures assembly throughput on the largest benchmark.
func BenchmarkAssembler(b *testing.B) {
	src := fmt.Sprintf(".org %#x\n", 0xf000)
	for i := 0; i < 200; i++ {
		src += fmt.Sprintf("l%d: mov #%d, r10\n    add r10, r11\n    jnz l%d\n", i, i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.AssembleSource(src); err != nil {
			b.Fatal(err)
		}
	}
}
