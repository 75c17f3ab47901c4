package bench

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/sim"
)

// Measurement is the concrete-execution profile of one system variant.
type Measurement struct {
	// PeriodCycles is the steady-state distance between successive task
	// activations (for watchdog-bounded variants this includes the idle
	// padding and the power-on reset).
	PeriodCycles uint64
	// TaskCycles is the execution time of the task body itself.
	TaskCycles uint64
	// Insns executed per period; CPI = PeriodCycles/Insns.
	Insns uint64
	// Toggles is the flip-flop switching activity per period.
	Toggles uint64
}

// CPI returns cycles per instruction over the period.
func (m Measurement) CPI() float64 {
	if m.Insns == 0 {
		return 0
	}
	return float64(m.PeriodCycles) / float64(m.Insns)
}

// Measure runs a built system concretely with deterministic pseudo-random
// tainted-port samples and profiles one steady-state task period.
func Measure(bt *Built, seed uint16, maxCycles uint64) (*Measurement, error) {
	return MeasureContext(context.Background(), bt, seed, maxCycles)
}

// MeasureContext is Measure under a cancellation context, checked between
// simulated cycles so deadlines and SIGINT abort a stuck run cleanly.
func MeasureContext(ctx context.Context, bt *Built, seed uint16, maxCycles uint64) (*Measurement, error) {
	sys, err := mcu.NewSystem(glift.SharedDesign())
	if err != nil {
		return nil, err
	}
	zeros := make([]byte, sys.RAM.Size())
	sys.RAM.Fill(sys.RAM.Base(), zeros)
	bt.Img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.SetResetVector(bt.Img.Entry)

	taskAddr, err := bt.Img.ResolveSymbol("task")
	if err != nil {
		return nil, fmt.Errorf("bench %s (%s): %w", bt.Bench.Name, bt.Variant, err)
	}
	doneAddr, err := bt.Img.ResolveSymbol("task_done")
	if err != nil {
		return nil, fmt.Errorf("bench %s (%s): %w", bt.Bench.Name, bt.Variant, err)
	}

	rng := mcu.LFSR(seed | 1)
	sys.PowerOn()

	type mark struct {
		cycle, insns, toggles uint64
	}
	var taskEntries []mark
	var doneSeen []mark
	var insns uint64
	for sys.Cycle < maxCycles && len(taskEntries) < 3 {
		if sys.Cycle&1023 == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("bench %s (%s): measurement cancelled at cycle %d: %w", bt.Bench.Name, bt.Variant, sys.Cycle, ctx.Err())
		}
		sys.SetPortIn(0, sim.ConcreteWord(rng.Next()))
		ci := sys.EvalCycle(nil)
		if !ci.PmemOK {
			return nil, fmt.Errorf("bench %s (%s): PC unknown at cycle %d", bt.Bench.Name, bt.Variant, sys.Cycle)
		}
		if ci.StateOK && ci.State == mcu.StFetch {
			insns++
			m := mark{cycle: sys.Cycle, insns: insns, toggles: sys.C.Toggles}
			if ci.PmemAddr == taskAddr {
				taskEntries = append(taskEntries, m)
			}
			if ci.PmemAddr == doneAddr && len(doneSeen) < len(taskEntries) {
				doneSeen = append(doneSeen, m)
			}
		}
		sys.Commit(ci)
	}
	if len(taskEntries) < 2 || len(doneSeen) < 1 {
		return nil, fmt.Errorf("bench %s (%s): did not reach steady state in %d cycles", bt.Bench.Name, bt.Variant, maxCycles)
	}
	a, b := taskEntries[len(taskEntries)-2], taskEntries[len(taskEntries)-1]
	return &Measurement{
		PeriodCycles: b.cycle - a.cycle,
		TaskCycles:   doneSeen[0].cycle - taskEntries[0].cycle,
		Insns:        b.insns - a.insns,
		Toggles:      b.toggles - a.toggles,
	}, nil
}

// Evaluation is the full per-benchmark result set feeding Tables 2 and 3.
type Evaluation struct {
	Bench *Benchmark

	Unmod        *Built
	UnmodReport  *glift.Report
	UnmodMeasure *Measurement

	With        *Built
	WithReport  *glift.Report
	WithMeasure *Measurement

	Always        *Built
	AlwaysMeasure *Measurement
}

// UnmodC1 and UnmodC2 are the Table 2 "unmodified" cells.
func (e *Evaluation) UnmodC1() bool { return len(e.UnmodReport.ByKind(glift.C1TaintedState)) > 0 }
func (e *Evaluation) UnmodC2() bool { return len(e.UnmodReport.ByKind(glift.C2MemoryEscape)) > 0 }

// ModC1 and ModC2 are the Table 2 "modified" cells.
func (e *Evaluation) ModC1() bool { return len(e.WithReport.ByKind(glift.C1TaintedState)) > 0 }
func (e *Evaluation) ModC2() bool { return len(e.WithReport.ByKind(glift.C2MemoryEscape)) > 0 }

// period returns the effective steady-state period of a variant. Watchdog
// bounds with multiple slices assume RTOS-style context checkpointing that
// the single-task harness cannot run physically (Section 7.2's cost model),
// so the analytic bound plus the per-slice switching cost stands in; every
// other configuration uses the measured period.
func period(bt *Built, m *Measurement) uint64 {
	if bt.Watchdog && bt.Plan.Slices > 1 {
		return bt.Plan.BoundCycles
	}
	if m != nil {
		return m.PeriodCycles
	}
	return bt.Plan.BoundCycles
}

// OverheadWith returns the Table 3 "with analysis" overhead percent.
func (e *Evaluation) OverheadWith() float64 {
	return overheadPct(e.UnmodMeasure.PeriodCycles, period(e.With, e.WithMeasure))
}

// OverheadWithout returns the Table 3 "without analysis" overhead percent.
func (e *Evaluation) OverheadWithout() float64 {
	return overheadPct(e.UnmodMeasure.PeriodCycles, period(e.Always, e.AlwaysMeasure))
}

func overheadPct(base, prot uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(int64(prot)-int64(base)) / float64(base)
}

// The concrete measurement runs behind Table 3 sample the tainted port from
// an LFSR seeded with measureSeed, and give each variant measureMaxCycles to
// reach steady state.
const (
	measureSeed      = 0xACE1
	measureMaxCycles = 300_000
)

// Evaluate runs the full pipeline for one benchmark: analyze the unmodified
// system, derive both protected variants, re-verify the analysis-guided one
// and measure all three concretely.
func Evaluate(b *Benchmark) (*Evaluation, error) {
	return EvaluateContext(context.Background(), b)
}

// EvaluateContext is Evaluate under a cancellation context, threaded through
// both the symbolic analyses and the concrete measurement runs.
func EvaluateContext(ctx context.Context, b *Benchmark) (*Evaluation, error) {
	ev := &Evaluation{Bench: b}
	var err error
	ev.Unmod, err = BuildUnmodified(b)
	if err != nil {
		return nil, err
	}
	ev.UnmodMeasure, err = MeasureContext(ctx, ev.Unmod, measureSeed, measureMaxCycles)
	if err != nil {
		return nil, err
	}
	ev.UnmodReport, err = analyze(ctx, ev.Unmod)
	if err != nil {
		return nil, err
	}

	// The analysis-guided variant comes with the report of its last
	// analysis round, which is the re-verification.
	task := ev.UnmodMeasure.TaskCycles
	ev.With, ev.WithReport, err = BuildProtected(ctx, b, WithAnalysis, ev.UnmodReport, ev.Unmod, task)
	if err != nil {
		return nil, err
	}
	ev.Always, _, err = BuildProtected(ctx, b, AlwaysOn, nil, ev.Unmod, task)
	if err != nil {
		return nil, err
	}

	// Concrete measurement of the protected variants: physically runnable
	// when the plan fits one slice per activation; multi-slice plans use the
	// analytic bound (see period()).
	if !ev.With.Watchdog || ev.With.Plan.Slices == 1 {
		if m, err := MeasureContext(ctx, ev.With, measureSeed, measureMaxCycles); err == nil {
			ev.WithMeasure = m
		}
	}
	if !ev.Always.Watchdog || ev.Always.Plan.Slices == 1 {
		if m, err := MeasureContext(ctx, ev.Always, measureSeed, measureMaxCycles); err == nil {
			ev.AlwaysMeasure = m
		}
	}
	return ev, nil
}

// EvaluateAll evaluates every benchmark concurrently (each evaluation owns
// its own simulator state; the shared netlist is immutable).
func EvaluateAll() ([]*Evaluation, error) {
	return EvaluateAllContext(context.Background())
}

// EvaluateAllContext is EvaluateAll under a cancellation context; the first
// cancellation error wins and the remaining evaluations drain promptly.
func EvaluateAllContext(ctx context.Context) ([]*Evaluation, error) {
	all := All()
	evs := make([]*Evaluation, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, b := range all {
		wg.Add(1)
		go func(i int, b *Benchmark) {
			defer wg.Done()
			evs[i], errs[i] = EvaluateContext(ctx, b)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return evs, nil
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Name                           string
	UnmodC1, UnmodC2, ModC1, ModC2 bool
	ExpectC1C2                     bool
}

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Name                    string
	Without, With           float64
	PaperWithout, PaperWith float64
	MaskedWith, MaskedAll   int
	Watchdog                bool
	CPI                     float64
}

// Tables computes both tables from a set of evaluations.
func Tables(evs []*Evaluation) ([]Table2Row, []Table3Row) {
	var t2 []Table2Row
	var t3 []Table3Row
	for _, ev := range evs {
		t2 = append(t2, Table2Row{
			Name:       ev.Bench.Name,
			UnmodC1:    ev.UnmodC1(),
			UnmodC2:    ev.UnmodC2(),
			ModC1:      ev.ModC1(),
			ModC2:      ev.ModC2(),
			ExpectC1C2: ev.Bench.ExpectC1C2,
		})
		t3 = append(t3, Table3Row{
			Name:         ev.Bench.Name,
			Without:      ev.OverheadWithout(),
			With:         ev.OverheadWith(),
			PaperWithout: ev.Bench.PaperWithout,
			PaperWith:    ev.Bench.PaperWith,
			MaskedWith:   ev.With.Masked,
			MaskedAll:    ev.Always.Masked,
			Watchdog:     ev.With.Watchdog,
			CPI:          ev.UnmodMeasure.CPI(),
		})
	}
	return t2, t3
}

// ReductionFactor computes the paper's headline ratio: average always-on
// overhead divided by average analysis-guided overhead.
func ReductionFactor(rows []Table3Row) float64 {
	var sw, sa float64
	for _, r := range rows {
		sa += r.Without
		sw += r.With
	}
	if sw == 0 {
		return 0
	}
	return sa / sw
}
