package glift

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/sim"
)

func mustImage(t *testing.T, src string) *asm.Image {
	t.Helper()
	img, err := asm.AssembleSource(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func analyze(t *testing.T, src string, pol *Policy) *Report {
	t.Helper()
	rep, err := Analyze(mustImage(t, src), pol, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

func hasKind(rep *Report, k Kind) bool { return len(rep.ByKind(k)) > 0 }

// A trivial untainted program touching only untainted resources must verify
// secure (Figure 3's scenario).
func TestSecureProgramVerifies(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0028, r5      ; P3IN (untainted port)
        add #1, r5
        mov r5, &0x002e      ; P4OUT (untainted port is fine for clean data)
        jmp start
`, &Policy{Name: "integrity"})
	if !rep.Secure() {
		t.Fatalf("expected secure, got %v", rep.Violations)
	}
	if rep.Stats.Prunes == 0 {
		t.Fatal("the infinite loop should have been pruned by the state table")
	}
	t.Logf("stats: %s", rep.Stats)
}

// A data-dependent loop over tainted input forks and still terminates via
// conservative merging.
func TestTaintedControlFlowTerminates(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r5      ; tainted P1IN
        and #7, r5
loop:   dec r5
        jnz loop
        mov #1, &0x0026      ; P2OUT, tainted sink (allowed)
        jmp start
`, &Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
	})
	if rep.Stats.Forks == 0 {
		t.Fatal("expected forks on the tainted loop condition")
	}
	if hasKind(rep, AnalysisIncomplete) {
		t.Fatalf("analysis did not converge: %v", rep.Violations)
	}
	t.Logf("stats: %s, violations: %v", rep.Stats, rep.Violations)
}

// Figure 4's vulnerable pattern: tainted input used as a store offset
// reaches untainted memory -> C2.
func TestFigure4TaintedOffsetViolates(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r15     ; offset = <P1> (tainted)
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)     ; c[i+offset] = ...
done:   jmp done
`, &Policy{
		Name:           "integrity",
		TaintedInPorts: []int{0},
		TaintedData:    []AddrRange{{0x0400, 0x0800}},
	})
	if !hasKind(rep, C2MemoryEscape) {
		t.Fatalf("expected C2, got %v", rep.Violations)
	}
	// Root cause must be the store instruction (the 4th instruction).
	img := mustImage(t, `
start:  mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
done:   jmp done
`)
	storePCs := rep.ViolatingStorePCs()
	if len(storePCs) != 1 {
		t.Fatalf("expected exactly one violating store, got %v", storePCs)
	}
	si := img.AddrToStmt[storePCs[0]]
	if img.Stmts[si].Mnemonic != "mov" || img.Stmts[si].Ops[1].Kind != asm.OpIndexed {
		t.Fatalf("root cause points at %q", img.Stmts[si].String())
	}
}

// Figure 5 / Figure 9 right-hand: masking the address makes it secure.
func TestFigure5MaskedOffsetVerifies(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        and #0x03ff, r14
        bis #0x0400, r14
        mov #500, 0(r14)
done:   jmp done
`, &Policy{
		Name:           "integrity",
		TaintedInPorts: []int{0},
		TaintedData:    []AddrRange{{0x0400, 0x0800}},
	})
	if hasKind(rep, C2MemoryEscape) {
		t.Fatalf("masked store still flagged: %v", rep.Violations)
	}
}

// Figure 8 left-hand: once tainted code runs, the PC is tainted and jumping
// back to untainted code violates C1.
func TestFigure8UnprotectedViolatesC1(t *testing.T) {
	src := `
start:  nop
tstart: mov #3, r10          ; tainted partition begins here
loop:   nop
        dec r10
        jnz loop
        jmp start
tend:
`
	img := mustImage(t, src)
	pol := &Policy{
		Name:           "integrity",
		TaintedCode:    []AddrRange{{img.MustSymbol("tstart"), img.MustSymbol("tend")}},
		TaintCodeWords: true, // Figure 8 explicitly marks the instructions tainted
	}
	rep, err := Analyze(img, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(rep, C1TaintedState) {
		t.Fatalf("expected C1, got %v", rep.Violations)
	}
	if !rep.NeedsWatchdog() {
		t.Fatal("report should request the watchdog transform")
	}
}

// Figure 8 right-hand: arming the watchdog in the untainted partition and
// letting it reset the pipeline removes the C1 violation. The tainted task
// has control flow dependent on a tainted input (the benchmark scenario of
// Section 7), which taints the PC until the watchdog reset recovers it.
func TestFigure8WatchdogProtectionVerifies(t *testing.T) {
	src := `
.equ WDTCTL, 0x0120
start:  mov #0x5a03, &WDTCTL ; arm watchdog, 64-cycle interval (untainted)
tstart: mov &0x0020, r10     ; tainted input (P1IN)
        and #3, r10
loop:   nop
        dec r10
        jnz loop             ; tainted control flow
spin:   jmp spin             ; pad until the watchdog fires
tend:
`
	img := mustImage(t, src)
	pol := &Policy{
		Name:           "integrity",
		TaintedInPorts: []int{0},
		TaintedCode:    []AddrRange{{img.MustSymbol("tstart"), img.MustSymbol("tend")}},
	}
	rep, err := Analyze(img, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hasKind(rep, C1TaintedState) {
		t.Fatalf("watchdog protection failed: %v", rep.Violations)
	}
	if hasKind(rep, WatchdogTainted) {
		t.Fatalf("watchdog integrity flagged: %v", rep.Violations)
	}
	if hasKind(rep, AnalysisIncomplete) || hasKind(rep, PCUnresolved) {
		t.Fatalf("analysis failed to converge: %v", rep.Violations)
	}
	t.Logf("stats: %s", rep.Stats)
}

// Tainted code writing the watchdog control register is flagged, because it
// breaks the recovery mechanism's soundness.
func TestTaintedCodeWritingWatchdogFlagged(t *testing.T) {
	src := `
.equ WDTCTL, 0x0120
start:  nop
tstart: mov #0x5a80, &WDTCTL ; tainted code holds the watchdog
        jmp tstart
tend:
`
	img := mustImage(t, src)
	pol := &Policy{
		Name:        "integrity",
		TaintedCode: []AddrRange{{img.MustSymbol("tstart"), img.MustSymbol("tend")}},
	}
	rep, err := Analyze(img, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(rep, WatchdogTainted) {
		t.Fatalf("expected watchdog violation, got %v", rep.Violations)
	}
}

// C4: untainted code reading a tainted port.
func TestC4UntaintedReadsTaintedPort(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r5
done:   jmp done
`, &Policy{Name: "integrity", TaintedInPorts: []int{0}})
	if !hasKind(rep, C4ReadTaintedPort) {
		t.Fatalf("expected C4, got %v", rep.Violations)
	}
}

// C5: tainted code writing an untainted output port.
func TestC5TaintedWritesUntaintedPort(t *testing.T) {
	src := `
start:  nop
tstart: mov #1, &0x002e      ; P4OUT is untainted
        jmp tstart
tend:
`
	img := mustImage(t, src)
	pol := &Policy{
		Name:        "integrity",
		TaintedCode: []AddrRange{{img.MustSymbol("tstart"), img.MustSymbol("tend")}},
	}
	rep, err := Analyze(img, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(rep, C5WriteUntaintedPort) {
		t.Fatalf("expected C5, got %v", rep.Violations)
	}
}

// C3: untainted code loading from a tainted data partition.
func TestC3UntaintedLoadsTaintedData(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0500, r5      ; inside the tainted partition
done:   jmp done
`, &Policy{
		Name:                 "integrity",
		TaintedData:          []AddrRange{{0x0400, 0x0800}},
		InitiallyTaintedData: []AddrRange{{0x0400, 0x0800}},
	})
	if !hasKind(rep, C3LoadTainted) {
		t.Fatalf("expected C3, got %v", rep.Violations)
	}
}

// Direct non-interference: untainted code moving tainted data out an
// untainted port.
func TestDirectOutputViolation(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r5      ; tainted input (also a C4)
        mov r5, &0x002e      ; P4OUT untainted
done:   jmp done
`, &Policy{Name: "integrity", TaintedInPorts: []int{0}})
	if !hasKind(rep, OutputPortTainted) {
		t.Fatalf("expected direct output violation, got %v", rep.Violations)
	}
}

// Indirect control flow through unknown data cannot be concretized and is
// reported conservatively.
func TestUnresolvedIndirectJump(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r5
        br r5
`, &Policy{Name: "integrity", TaintedInPorts: []int{0}})
	if !hasKind(rep, PCUnresolved) {
		t.Fatalf("expected PCUnresolved, got %v", rep.Violations)
	}
}

// The watchdog-expiry fork: after merging, the countdown is unknown and the
// engine explores both reset and no-reset worlds without diverging.
func TestWatchdogForkConverges(t *testing.T) {
	rep := analyze(t, `
.equ WDTCTL, 0x0120
start:  mov #0x5a03, &WDTCTL
spin:   jmp spin
`, &Policy{Name: "integrity"})
	if hasKind(rep, AnalysisIncomplete) {
		t.Fatalf("did not converge: %v (stats %s)", rep.Violations, rep.Stats)
	}
	if !rep.Secure() {
		t.Fatalf("expected secure, got %v", rep.Violations)
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &Report{Violations: []Violation{
		{Kind: C1TaintedState, PC: 0xf010},
		{Kind: C2MemoryEscape, PC: 0xf020},
		{Kind: C2MemoryEscape, PC: 0xf004},
	}}
	if got := rep.ViolatedConditions(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("conditions = %v", got)
	}
	if got := rep.ViolatingStorePCs(); len(got) != 2 || got[0] != 0xf004 {
		t.Fatalf("store PCs = %v", got)
	}
	if !rep.NeedsWatchdog() {
		t.Fatal("NeedsWatchdog")
	}
	if rep.Secure() {
		t.Fatal("Secure with violations")
	}
}

func TestKindStringsAndConditions(t *testing.T) {
	if C1TaintedState.Condition() != 1 || C5WriteUntaintedPort.Condition() != 5 {
		t.Fatal("condition numbering broken")
	}
	if OutputPortTainted.Condition() != 0 {
		t.Fatal("non-condition kind mapped to a condition")
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Fatal("missing kind name")
		}
	}
}

func TestPolicyHelpers(t *testing.T) {
	p := &Policy{
		Name:            "x",
		TaintedInPorts:  []int{0, 2},
		TaintedOutPorts: []int{1},
		TaintedCode:     []AddrRange{{0xf100, 0xf200}},
		TaintedData:     []AddrRange{{0x0400, 0x0800}},
	}
	if !p.TaintedInPort(0) || p.TaintedInPort(1) || !p.TaintedInPort(2) {
		t.Fatal("TaintedInPort")
	}
	if !p.TaintedOutPort(1) || p.TaintedOutPort(0) {
		t.Fatal("TaintedOutPort")
	}
	if !p.InTaintedCode(0xf100) || p.InTaintedCode(0xf200) {
		t.Fatal("InTaintedCode")
	}
	if !p.InTaintedData(0x0400) || p.InTaintedData(0x0800) {
		t.Fatal("InTaintedData")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Policy{TaintedCode: []AddrRange{{5, 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty range should fail validation")
	}
}

// Figure 7 reproduction: the exact (value, taint) table from the paper.
func TestFigure7ExecutionTree(t *testing.T) {
	tree, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	sig := func(v logic.V, tt bool) logic.Sig { return logic.S(v, tt) }
	wantCommon := []Fig7Row{
		{0, sig(logic.X, false), sig(logic.X, false), sig(logic.One, false), sig(logic.X, false)},
		{1, sig(logic.Zero, false), sig(logic.One, false), sig(logic.Zero, false), sig(logic.One, false)},
		{2, sig(logic.One, false), sig(logic.Zero, true), sig(logic.Zero, false), sig(logic.One, true)},
	}
	wantLeft := []Fig7Row{
		{3, sig(logic.One, true), sig(logic.X, false), sig(logic.Zero, false), sig(logic.X, true)},
		{4, sig(logic.X, true), sig(logic.X, false), sig(logic.One, true), sig(logic.X, true)},
		{5, sig(logic.Zero, true), sig(logic.Zero, false), sig(logic.Zero, false), sig(logic.Zero, true)},
	}
	wantRight := []Fig7Row{
		{3, sig(logic.One, true), sig(logic.One, true), sig(logic.Zero, false), sig(logic.Zero, true)},
		{4, sig(logic.Zero, true), sig(logic.X, true), sig(logic.One, false), sig(logic.X, true)},
		{5, sig(logic.Zero, false), sig(logic.Zero, false), sig(logic.Zero, false), sig(logic.Zero, false)},
	}
	checkRows := func(name string, got, want []Fig7Row) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows", name, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s cycle %d:\n got %s\nwant %s", name, want[i].Cycle, got[i], want[i])
			}
		}
	}
	checkRows("common", tree.Common, wantCommon)
	checkRows("left", tree.Left, wantLeft)
	checkRows("right", tree.Right, wantRight)
}

// The *-logic baseline degrades on input-dependent control flow: the PC
// taints most of the design including the watchdog (Footnote 8).
func TestStarLogicDegrades(t *testing.T) {
	img := mustImage(t, `
start:  mov &0x0020, r5
        and #3, r5
loop:   dec r5
        jnz loop
        jmp start
`)
	rep, err := StarLogic(img, &Policy{Name: "integrity", TaintedInPorts: []int{0}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PCBecameUnknown {
		t.Fatal("PC should have become unknown")
	}
	if rep.GateTaintFraction < 0.5 {
		t.Fatalf("gate taint fraction = %.2f, expected majority tainted", rep.GateTaintFraction)
	}
	if !rep.WatchdogTainted {
		t.Fatal("the watchdog should be tainted under *-logic")
	}
	t.Logf("*-logic: %.1f%% gates, %.1f%% DFFs tainted; wdt tainted=%v",
		100*rep.GateTaintFraction, 100*rep.DFFTaintFraction, rep.WatchdogTainted)
}

// On a straight-line (input-independent) program *-logic stays precise.
func TestStarLogicPreciseWithoutControlDependence(t *testing.T) {
	img := mustImage(t, `
start:  mov &0x0028, r5
        add #1, r5
done:   jmp done
`)
	rep, err := StarLogic(img, &Policy{Name: "integrity"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PCBecameUnknown {
		t.Fatal("PC should have stayed known")
	}
	if rep.GateTaintFraction != 0 {
		t.Fatalf("nothing should be tainted, got %.2f", rep.GateTaintFraction)
	}
}

func TestAddrRangePattern(t *testing.T) {
	r := AddrRange{0x0400, 0x0480}
	if !r.IntersectsPattern(0x00ff, 0x0400) {
		t.Fatal("pattern with free low bits should intersect")
	}
	if r.IntersectsPattern(0x00ff, 0x0200) {
		t.Fatal("pattern pinned outside should not intersect")
	}
	_ = isa.RAMStart
}

// TestTableApplyCopyOnMerge pins the snapshot-immutability contract of the
// conservative state table: insert and replace keep the caller's snapshot
// itself, which may also sit in the work queue, so a later widening must
// build a new superstate rather than merge into the entry in place.
func TestTableApplyCopyOnMerge(t *testing.T) {
	e, err := NewEngine(mustImage(t, "start: jmp start\n"), &Policy{Name: "cow"}, &Options{WidenAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Sys.PowerOn()
	base := e.Sys.Snapshot()
	variant := func(v logic.V, ram uint16) *mcu.Snapshot {
		s := base.Clone()
		s.DFF[0] = logic.Pack(logic.S(v, false))
		s.RAM.StoreByte(s.RAM.Base(), sim.Word{Val: ram})
		return s
	}
	k := forkKey{pc: 0x4242}
	queued := variant(logic.One, 0x22)
	steps := []struct {
		snap *mcu.Snapshot
		want tableOutcome
	}{
		{variant(logic.Zero, 0x11), tableInserted},
		{queued, tableReplaced},
		{variant(logic.Zero, 0x33), tableWidened},
	}
	wantDFF := append([]logic.Packed(nil), queued.DFF...)
	wantRAM := queued.RAM.Snapshot()
	var cont *mcu.Snapshot
	for i, st := range steps {
		oc, c := e.tableApply(k, st.snap)
		if oc != st.want {
			t.Fatalf("step %d: outcome %d, want %d", i, oc, st.want)
		}
		if oc == tableReplaced {
			// The replaced entry is the queued state itself, as when a
			// fork successor is both tabled and pushed.
			if e.table[k].snap != queued {
				t.Fatal("replace did not keep the caller's snapshot")
			}
			e.work = append(e.work, pathState{snap: queued})
		}
		cont = c
	}
	ps := e.work[len(e.work)-1]
	if !reflect.DeepEqual(ps.snap.DFF, wantDFF) || !reflect.DeepEqual(ps.snap.RAM, wantRAM) {
		t.Fatal("widening mutated a snapshot held by a queued path state")
	}
	if cont == queued || e.table[k].snap != cont {
		t.Fatal("widening must install a fresh superstate as the entry")
	}
	// Replace drops the first state; the superstate joins the other two.
	for i, st := range steps[1:] {
		if !st.snap.SubstateOf(cont) {
			t.Errorf("superstate does not cover step %d's state", i+1)
		}
	}
}
