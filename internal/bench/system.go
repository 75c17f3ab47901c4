package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/transform"
)

// Variant selects a protection configuration for a benchmark system.
type Variant int

// Variants.
const (
	// Unmodified is the original application.
	Unmodified Variant = iota
	// WithAnalysis applies only the protections the application-specific
	// analysis proves necessary (the paper's approach).
	WithAnalysis
	// AlwaysOn masks every maskable task store and time-bounds the tainted
	// task unconditionally — the software baseline with no application
	// knowledge.
	AlwaysOn
)

func (v Variant) String() string {
	switch v {
	case Unmodified:
		return "unmodified"
	case WithAnalysis:
		return "with-analysis"
	default:
		return "always-on"
	}
}

// Built is an assembled benchmark system plus its policy and metadata.
type Built struct {
	Bench   *Benchmark
	Variant Variant
	Stmts   []asm.Stmt
	Img     *asm.Image
	Policy  *glift.Policy
	// Masked is the number of store sites protected by masking.
	Masked int
	// Watchdog reports whether the watchdog bound is armed, with its plan.
	Watchdog bool
	Plan     transform.WdtPlan
}

// partition is the benchmarks' tainted data partition.
var partition = transform.Partition{Lo: PartLo, Size: PartSize}

// header emits the shared equates and system code. When armed, the tainted
// task ends in an in-partition idle loop and the watchdog (already armed by
// the untainted system code) recovers the pipeline with a power-on reset;
// otherwise the task jumps straight back into the untainted system code.
func header(armed bool, wdtval uint16) string {
	var sb strings.Builder
	sb.WriteString(`
.equ WDTCTL, 0x0120
.equ P1IN, 0x0020
.equ P2OUT, 0x0026
.equ TPART, 0x0400
start:  mov #0x0400, sp
`)
	if armed {
		fmt.Fprintf(&sb, "sysloop: mov #0x%04x, &WDTCTL ; arm the deterministic bound\n", wdtval)
		sb.WriteString("        jmp task\n")
		sb.WriteString("task_start:\n")
	} else {
		sb.WriteString("sysloop: jmp task\n")
		sb.WriteString("task_done: jmp sysloop\n")
		sb.WriteString("task_start:\n")
	}
	return sb.String()
}

func trailer(armed bool) string {
	if armed {
		// The idle loop belongs to the tainted partition: the task parks
		// here with a possibly tainted PC until the watchdog fires.
		return "task_done: jmp task_done ; idle until the watchdog reset\ntask_end: nop\n"
	}
	return "task_end: nop\n"
}

// buildSource assembles the full system text for a benchmark.
func buildSource(b *Benchmark, armed bool, wdtval uint16) string {
	return header(armed, wdtval) + b.Task + trailer(armed)
}

// Source is the unarmed full system text for a benchmark — the program the
// repair toolflow (secure430 and gliftd repair jobs) takes as input. The
// differential suites feed the same text to both paths.
func Source(b *Benchmark) string {
	return buildSource(b, false, 0)
}

// policyFor labels the system: P1IN tainted source, P2OUT legal tainted
// sink, the task's code partition tainted, the data partition allocated.
func policyFor(img *asm.Image) *glift.Policy {
	return &glift.Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
		TaintedCode: []glift.AddrRange{{
			Lo: img.MustSymbol("task_start"),
			Hi: img.MustSymbol("task_end"),
		}},
		TaintedData: []glift.AddrRange{{Lo: PartLo, Hi: PartLo + PartSize}},
	}
}

// Building a system is pure in its source text, but the evaluation
// pipeline used to rebuild the same text over and over: the unmodified
// image was reassembled for every measurement and variant derivation, and
// each repair round re-parsed an identical scaffold. Both are memoized
// here. The unmodified Built is shared read-only per benchmark; parsed
// scaffolds are cached by source text with callers handed fresh slice
// copies, since mask insertion relabels statements.
var (
	unmodMu    sync.Mutex
	unmodCache = map[string]*Built{}
	parseCache sync.Map // source text -> []asm.Stmt (never mutated)
)

// BuildUnmodified assembles the original system once per benchmark and
// returns the shared, read-only result on every later call.
func BuildUnmodified(b *Benchmark) (*Built, error) {
	unmodMu.Lock()
	defer unmodMu.Unlock()
	if bt, ok := unmodCache[b.Name]; ok {
		return bt, nil
	}
	src := buildSource(b, false, 0)
	img, err := asm.AssembleSource(src)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	bt := &Built{
		Bench: b, Variant: Unmodified,
		Stmts: img.Stmts, Img: img, Policy: policyFor(img),
	}
	unmodCache[b.Name] = bt
	return bt, nil
}

// parseScaffold parses a system source through the cache, returning a copy
// the caller may extend or relabel freely.
func parseScaffold(src string) ([]asm.Stmt, error) {
	if cached, ok := parseCache.Load(src); ok {
		return append([]asm.Stmt(nil), cached.([]asm.Stmt)...), nil
	}
	stmts, err := asm.Parse(src)
	if err != nil {
		return nil, err
	}
	parseCache.Store(src, stmts)
	return append([]asm.Stmt(nil), stmts...), nil
}

// taskStmtOffset finds the statement index of the "task" label.
func taskStmtOffset(stmts []asm.Stmt) (int, error) {
	for i := range stmts {
		if stmts[i].Label == "task" {
			return i, nil
		}
	}
	return 0, fmt.Errorf("bench: no task label")
}

// buildVariant assembles a variant from the set of flagged source lines
// (statements carry their original source line numbers through mask
// insertion, since inserted statements have Line 0; the armed and unarmed
// scaffolds occupy the same number of source lines).
func buildVariant(b *Benchmark, v Variant, armed bool, plan transform.WdtPlan, flaggedLines map[int]bool) (*Built, error) {
	src := buildSource(b, armed, plan.WDTCTLValue())
	stmts, err := parseScaffold(src)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	flagged := map[int]bool{}
	for i := range stmts {
		if stmts[i].Line > 0 && flaggedLines[stmts[i].Line] {
			flagged[i] = true
		}
	}
	masked := 0
	if len(flagged) > 0 {
		stmts, masked, err = transform.InsertMasks(stmts, flagged, partition)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
	}
	img, err := asm.Assemble(stmts)
	if err != nil {
		return nil, fmt.Errorf("bench %s (%s): %w\n%s", b.Name, v, err, asm.Print(stmts))
	}
	return &Built{
		Bench: b, Variant: v, Stmts: stmts, Img: img, Policy: policyFor(img),
		Masked: masked, Watchdog: armed, Plan: plan,
	}, nil
}

// BuildProtected derives a protected variant and returns it with the report
// of its last analysis.
//
// WithAnalysis runs the paper's iterative toolflow (Figure 11): analyze,
// mask the root-cause stores, re-analyze — because fixing a primary
// violation (e.g. an overflow store whose cover reaches the watchdog)
// removes the conservative downstream violations it induced — and arm the
// watchdog bound once tainted control flow is confirmed. report is the
// analysis of unmod; the returned report is the analysis of the returned
// variant (report itself when nothing needed fixing). taskCycles is the
// measured unprotected task length used for slice planning.
//
// AlwaysOn masks every maskable task store and always arms the watchdog. It
// analyzes nothing and returns a nil report.
func BuildProtected(ctx context.Context, b *Benchmark, v Variant, report *glift.Report, unmod *Built, taskCycles uint64) (*Built, *glift.Report, error) {
	off0, err := taskStmtOffset(unmod.Stmts)
	if err != nil {
		return nil, nil, err
	}

	if v == AlwaysOn {
		flaggedLines := map[int]bool{}
		for _, si := range transform.MaskableStoreIdxs(unmod.Stmts) {
			if si >= off0 {
				flaggedLines[unmod.Stmts[si].Line] = true
			}
		}
		plan := transform.PlanWatchdog(taskCycles + 4*uint64(len(flaggedLines)))
		bt, err := buildVariant(b, v, true, plan, flaggedLines)
		return bt, nil, err
	}

	if report == nil {
		return nil, nil, fmt.Errorf("bench: WithAnalysis requires a report")
	}
	flaggedLines := map[int]bool{}
	armed := false
	cur := unmod
	rep := report
	for round := 0; round < 8; round++ {
		progress := false
		for _, pc := range rep.ViolatingStorePCs() {
			si, ok := cur.Img.AddrToStmt[pc]
			if !ok {
				continue
			}
			st := cur.Stmts[si]
			if st.Line == 0 {
				continue // an inserted mask instruction cannot be the root cause
			}
			if _, maskable := transform.MaskableStoreTarget(&st); !maskable {
				continue // conservative downstream noise (e.g. port stores)
			}
			if !flaggedLines[st.Line] {
				flaggedLines[st.Line] = true
				progress = true
			}
		}
		if rep.NeedsWatchdog() && !armed {
			armed = true
			progress = true
		}
		if !progress {
			break
		}
		plan := transform.PlanWatchdog(taskCycles + 4*uint64(len(flaggedLines)))
		cur, err = buildVariant(b, v, armed, plan, flaggedLines)
		if err != nil {
			return nil, nil, err
		}
		rep, err = analyze(ctx, cur)
		if err != nil {
			return nil, nil, err
		}
	}
	if cur == unmod {
		// Nothing to fix: the protected variant is the unmodified program.
		return &Built{
			Bench: b, Variant: v, Stmts: unmod.Stmts, Img: unmod.Img,
			Policy: unmod.Policy,
		}, rep, nil
	}
	return cur, rep, nil
}

// analyze runs the symbolic analysis of a built variant. A cancelled
// exploration returns a partial report with the Incomplete verdict rather
// than an error; analyze surfaces the cancellation as an error so batch
// pipelines do not tabulate truncated results.
func analyze(ctx context.Context, bt *Built) (*glift.Report, error) {
	rep, err := glift.AnalyzeContext(ctx, bt.Img, bt.Policy, nil)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("bench %s: analysis cancelled: %w", bt.Bench.Name, ctx.Err())
	}
	return rep, nil
}
