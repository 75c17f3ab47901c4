package mcu

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/sim"
)

// shared design: building the netlist is moderately expensive, and it is
// stateless (all state lives in System/Circuit).
var testDesign = Build()

func newTestSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(testDesign)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNetlistShape(t *testing.T) {
	st := testDesign.NL.ComputeStats()
	if st.DFFs < 250 {
		t.Fatalf("suspiciously few flip-flops: %d", st.DFFs)
	}
	if st.Gates < 2000 {
		t.Fatalf("suspiciously few gates: %d", st.Gates)
	}
	t.Logf("netlist: %d gates, %d DFFs, %d nets, %d levels", st.Gates, st.DFFs, st.Nets, st.Levels)
}

// loadConcrete prepares a system for concrete execution: zero-filled RAM
// (matching the interpreter's flat memory) and the image in ROM.
func loadConcrete(t *testing.T, s *System, img *asm.Image) {
	t.Helper()
	zeros := make([]byte, s.RAM.Size())
	s.RAM.Fill(s.RAM.Base(), zeros)
	img.Place(func(a, w uint16) { s.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	s.SetResetVector(img.Entry)
}

// refMachine builds the interpreter twin for the same image.
func refMachine(img *asm.Image) *isa.Machine {
	mem := new(isa.FlatMem)
	img.Place(mem.StoreWord)
	mem.StoreWord(isa.ResetVec, img.Entry)
	m := isa.NewMachine(mem)
	m.Reset()
	return m
}

// compareState checks architectural state equality at an instruction
// boundary (gates must be sitting in StFetch).
func compareState(t *testing.T, s *System, m *isa.Machine, tag string) {
	t.Helper()
	ci := s.EvalCycle(nil)
	if !ci.StateOK || ci.State != StFetch {
		t.Fatalf("%s: gates not at fetch (state=%d ok=%v)", tag, ci.State, ci.StateOK)
	}
	for r := 0; r < 16; r++ {
		if r == int(isa.CG) {
			continue
		}
		w := s.RegWord(isa.Reg(r))
		if !w.Concrete() {
			t.Fatalf("%s: %s not concrete: %s", tag, isa.Reg(r), w)
		}
		if w.Val != m.R[r] {
			t.Fatalf("%s: %s = %#04x, interpreter has %#04x", tag, isa.Reg(r), w.Val, m.R[r])
		}
	}
}

// runDifferential locksteps gates and interpreter over n instructions.
func runDifferential(t *testing.T, src string, maxInsns int) {
	t.Helper()
	img, err := asm.AssembleSource(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	m := refMachine(img)
	s.PowerOn()
	s.Step() // StReset vector fetch
	compareState(t, s, m, "after reset")
	if s.Cycle != uint64(isa.ResetCycles) {
		t.Fatalf("reset cost %d cycles, interpreter model says %d", s.Cycle, isa.ResetCycles)
	}
	for i := 0; i < maxInsns; i++ {
		pc := m.R[isa.PC]
		cycles, err := m.Step()
		if err != nil {
			t.Fatalf("interpreter at %#04x: %v", pc, err)
		}
		for c := 0; c < cycles; c++ {
			s.Step()
		}
		compareState(t, s, m, srcLine(img, pc))
		if m.Cycles != s.Cycle {
			t.Fatalf("cycle divergence after %s: interp %d, gates %d", srcLine(img, pc), m.Cycles, s.Cycle)
		}
		if m.R[isa.PC] == pc { // parked on jmp $
			return
		}
	}
}

func srcLine(img *asm.Image, addr uint16) string {
	if si, ok := img.AddrToStmt[addr]; ok {
		return img.Stmts[si].String()
	}
	return "???"
}

func TestDifferentialBasics(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #0x1234, r5
        mov r5, r6
        add r5, r6
        addc #0, r6
        sub #1, r6
        cmp r5, r6
        xor r5, r6
        and #0x0f0f, r6
        bis #0x1000, r6
        bic #0x0010, r6
        bit #4, r6
done:   jmp done
`, 50)
}

func TestDifferentialMemoryOps(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #0x0300, r4
        mov #0xbeef, 0(r4)
        mov #0xcafe, 2(r4)
        mov 0(r4), r5
        add 2(r4), r5
        mov r5, &0x0310
        mov &0x0310, r6
        mov @r4, r7
        mov @r4+, r8
        mov @r4+, r9
        add r5, 4(r4)
        mov.b 1(r4), r10
        mov.b r10, 6(r4)
done:   jmp done
`, 50)
}

func TestDifferentialControlFlow(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #5, r10
        clr r11
loop:   add r10, r11
        dec r10
        jnz loop
        cmp #15, r11
        jeq good
        mov #0xbad, r15
good:   call #leaf
        push r11
        pop r12
done:   jmp done
leaf:   inc r11
        ret
`, 100)
}

func TestDifferentialFmt2(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #0x8421, r5
        rra r5
        rrc r5
        swpb r5
        sxt r5
        mov #0x0301, r4
        mov #0x00f7, 0(r4)
        rra 0(r4)
        mov 0(r4), r6
        mov #0x0304, r7
        mov #0x0055, 0(r7)
        rrc 0(r7)
done:   jmp done
`, 50)
}

func TestDifferentialByteOps(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #0x0300, r4
        mov #0x1234, 0(r4)
        mov.b #0xff, r5
        add.b 0(r4), r5
        mov.b r5, 1(r4)
        mov 0(r4), r6
        mov.b @r4+, r7
        mov.b @r4+, r8
        cmp.b r7, r8
        subc.b r7, r8
done:   jmp done
`, 50)
}

func TestDifferentialSignedBranches(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #-5, r5
        cmp #1, r5
        jl neg
        mov #1, r10
neg:    jge nonneg
        mov #2, r11
nonneg: mov #-3, r6
        tst r6
        jn isneg
        mov #3, r12
isneg:  cmp r5, r6          ; -3 - -5 = 2 >= 0
        jge done
        mov #4, r13
done:   jmp done
`, 50)
}

func TestDifferentialRETI(t *testing.T) {
	runDifferential(t, `
start:  mov #0x400, sp
        mov #after, r5      ; build an interrupt frame by hand
        push r5
        mov #0x0009, r6
        push r6
        reti
        mov #0xbad, r15     ; skipped
after:  mov #1, r10
done:   jmp done
`, 20)
}

// randProgram emits a random but well-behaved straight-line program.
func randProgram(rnd *rand.Rand, n int) string {
	src := "start: mov #0x500, sp\n"
	src += " mov #0x0300, r14\n mov #0x0380, r15\n"
	regs := []string{"r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r13"}
	ops2 := []string{"mov", "add", "addc", "sub", "subc", "cmp", "bit", "bic", "bis", "xor", "and"}
	ops1 := []string{"rra", "rrc", "swpb", "sxt", "inc", "dec", "inv", "tst", "clr"}
	jumps := []string{"jne", "jeq", "jnc", "jc", "jn", "jge", "jl"}
	for i := 0; i < n; i++ {
		r := regs[rnd.Intn(len(regs))]
		r2 := regs[rnd.Intn(len(regs))]
		bw := ""
		if rnd.Intn(4) == 0 {
			bw = ".b"
		}
		switch rnd.Intn(10) {
		case 0: // immediate
			src += " " + ops2[rnd.Intn(len(ops2))] + bw + " #" + itoa(rnd.Intn(65536)) + ", " + r + "\n"
		case 1: // reg-reg
			src += " " + ops2[rnd.Intn(len(ops2))] + bw + " " + r2 + ", " + r + "\n"
		case 2: // load indexed
			src += " " + ops2[rnd.Intn(len(ops2))] + bw + " " + itoa(rnd.Intn(0x70)) + "(r15), " + r + "\n"
		case 3: // store indexed
			src += " mov" + bw + " " + r2 + ", " + itoa(rnd.Intn(0x70)) + "(r15)\n"
		case 4: // rmw on memory
			src += " " + ops2[rnd.Intn(len(ops2))] + " " + r2 + ", " + itoa(rnd.Intn(0x38)*2) + "(r15)\n"
		case 5: // indirect/autoincrement load
			if rnd.Intn(2) == 0 {
				src += " mov @r14, " + r + "\n"
			} else {
				src += " mov @r14+, " + r + "\n"
			}
		case 6: // fmt2
			op := ops1[rnd.Intn(len(ops1))]
			if op == "swpb" || op == "sxt" {
				src += " " + op + " " + r + "\n"
			} else {
				src += " " + op + bw + " " + r + "\n"
			}
		case 7: // push
			src += " push " + r + "\n"
		case 8: // skip-one conditional jump
			lbl := "L" + itoa(i)
			src += " " + jumps[rnd.Intn(len(jumps))] + " " + lbl + "\n"
			src += " xor #0x5a5a, " + r + "\n"
			src += lbl + ":\n"
		case 9: // absolute store/load in scratch
			a := 0x0340 + 2*rnd.Intn(16)
			if rnd.Intn(2) == 0 {
				src += " mov " + r2 + ", &" + itoa(a) + "\n"
			} else {
				src += " mov &" + itoa(a) + ", " + r + "\n"
			}
		}
	}
	src += "done: jmp done\n"
	return src
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// TestDifferentialRandom fuzzes the gate-level CPU against the interpreter.
func TestDifferentialRandom(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for seed := 0; seed < trials; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		src := randProgram(rnd, 40)
		t.Run("seed"+itoa(seed), func(t *testing.T) {
			runDifferential(t, src, 200)
		})
	}
}

func TestRunToCompletion(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov #10, r10
loop:   dec r10
        jnz loop
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.PowerOn()
	cycles, err := s.RunToCompletion(context.Background(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	// mov #10 (2) + 10*(dec 1 + jnz 1) + jmp (1) + park detection overhead.
	if cycles < 23 || cycles > 30 {
		t.Fatalf("cycles = %d, expected ~23", cycles)
	}
}

// TestWatchdogExpiryResets verifies the gate-level watchdog: enabling it
// with the shortest interval resets the processor back to the entry point.
func TestWatchdogExpiryResets(t *testing.T) {
	img, err := asm.AssembleSource(`
.equ WDTCTL, 0x0120
start:  mov &0x0310, r5
        add #1, r5
        mov r5, &0x0310      ; count resets in RAM
        cmp #3, r5
        jeq halt
        mov #0x5a03, &WDTCTL ; enable watchdog, 64-cycle interval
spin:   jmp spin             ; wait for the reset
halt:   jmp halt
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.PowerOn()
	// Each pass: a few instructions, then a 64-cycle watchdog interval. The
	// spin loop parks, so run a fixed number of cycles rather than using the
	// self-jump detector.
	for i := 0; i < 600; i++ {
		s.Step()
	}
	w := s.RAM.LoadWord(0x0310)
	if !w.Concrete() || w.Val != 3 {
		t.Fatalf("reset counter = %s, want 3", w)
	}
}

// TestWatchdogPasswordViolation verifies that a write with a bad password
// immediately resets the processor.
func TestWatchdogPasswordViolation(t *testing.T) {
	img, err := asm.AssembleSource(`
.equ WDTCTL, 0x0120
start:  mov &0x0310, r5
        add #1, r5
        mov r5, &0x0310
        cmp #2, r5
        jeq halt
        mov #0x1234, &WDTCTL ; wrong password -> POR
        mov #99, &0x0312     ; never reached
halt:   jmp halt
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.PowerOn()
	if _, err := s.RunToCompletion(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if w := s.RAM.LoadWord(0x0310); w.Val != 2 {
		t.Fatalf("reset counter = %s, want 2", w)
	}
	if w := s.RAM.LoadWord(0x0312); w.Val == 99 {
		t.Fatal("instruction after the violating store should not have run")
	}
}

// TestGPIOOutputPort verifies port writes land in the port register.
func TestGPIOOutputPort(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov #0xabcd, &0x0022  ; P1OUT
        mov #0x00ef, r5
        mov.b r5, &0x0026     ; P2OUT low byte
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.PowerOn()
	if _, err := s.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	s.EvalCycle(nil)
	if w := s.GetWord(s.D.PortOut[0]); w.Val != 0xabcd {
		t.Fatalf("P1OUT = %s", w)
	}
	if w := s.GetWord(s.D.PortOut[1]); w.Val&0xff != 0xef {
		t.Fatalf("P2OUT = %s", w)
	}
}

// TestGPIOInputPort verifies reads of an input port see the injected value.
func TestGPIOInputPort(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov &0x0020, r5      ; P1IN
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.SetPortIn(0, sim.ConcreteWord(0x5678))
	s.PowerOn()
	if _, err := s.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	s.EvalCycle(nil)
	if w := s.RegWord(5); w.Val != 0x5678 {
		t.Fatalf("r5 = %s", w)
	}
}

// TestTaintFlowsFromPortToRegister: reading a tainted port taints the
// destination register — the basic GLIFT property end to end.
func TestTaintFlowsFromPortToRegister(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov &0x0020, r5
        mov #7, r6
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.SetPortIn(0, sim.Word{XM: 0xffff, TT: 0xffff}) // tainted unknown input
	s.PowerOn()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	s.EvalCycle(nil)
	if w := s.RegWord(5); !w.Tainted() {
		t.Fatalf("r5 should be tainted, got %s", w)
	}
	if w := s.RegWord(6); w.Tainted() || w.Val != 7 {
		t.Fatalf("r6 should be clean 7, got %s", w)
	}
}

// TestTaintedStoreAddressTaintsWholeRAM reproduces the Figure 9 left-hand
// behaviour at system level: storing through a tainted unknown address
// taints the entire data memory.
func TestTaintedStoreAddressTaintsWholeRAM(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov &0x0020, r15     ; tainted input
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)     ; store through tainted address
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.SetPortIn(0, sim.Word{XM: 0xffff, TT: 0xffff})
	s.PowerOn()
	for i := 0; i < 12; i++ {
		s.Step()
	}
	tainted := s.RAM.TaintedBytes(isa.RAMStart, isa.RAMEnd)
	if tainted < s.RAM.Size()*9/10 {
		t.Fatalf("only %d/%d RAM bytes tainted", tainted, s.RAM.Size())
	}
}

// TestMaskedStoreAddressConfinesTaint reproduces the Figure 9 right-hand
// behaviour: masking the address into a partition confines the taint.
func TestMaskedStoreAddressConfinesTaint(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        and #0x03ff, r14     ; mask offset
        bis #0x0400, r14     ; pin to the tainted partition 0x0400-0x07ff
        mov #500, 0(r14)
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.SetPortIn(0, sim.Word{XM: 0xffff, TT: 0xffff})
	s.PowerOn()
	for i := 0; i < 15; i++ {
		s.Step()
	}
	if n := s.RAM.TaintedBytes(0x0200, 0x0400); n != 0 {
		t.Fatalf("%d bytes tainted below the partition", n)
	}
	if n := s.RAM.TaintedBytes(0x0400, 0x0800); n == 0 {
		t.Fatal("the tainted partition should have absorbed the store")
	}
	if n := s.RAM.TaintedBytes(0x0800, isa.RAMEnd); n != 0 {
		t.Fatalf("%d bytes tainted above the partition", n)
	}
}

// TestSnapshotRoundTrip checks snapshot/restore and the substate/merge laws
// the Algorithm 1 engine depends on.
func TestSnapshotRoundTrip(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov #0x1111, r5
        mov #0x2222, r6
        mov r5, &0x0300
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.PowerOn()
	for i := 0; i < 4; i++ {
		s.Step()
	}
	snap := s.Snapshot()
	if !snap.SubstateOf(snap) {
		t.Fatal("snapshot should cover itself")
	}
	for i := 0; i < 4; i++ {
		s.Step()
	}
	after := s.Snapshot()
	s.Restore(snap)
	s.EvalCycle(nil)
	if w := s.RegWord(6); w.Val != 0 || !w.Concrete() {
		t.Fatalf("restore failed: r6 = %s", w)
	}
	merged := snap.Clone()
	merged.MergeFrom(after)
	if !snap.SubstateOf(merged) || !after.SubstateOf(merged) {
		t.Fatal("merge is not an upper bound")
	}
}

func TestEventsLogged(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov #1, &0x0100      ; unmapped MMIO hole
        mov &0x0102, r5
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	loadConcrete(t, s, img)
	s.PowerOn()
	if _, err := s.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	if len(evs) < 2 {
		t.Fatalf("expected unmapped-access events, got %v", evs)
	}
}

func TestPortInDefaultsUntaintedX(t *testing.T) {
	s := newTestSystem(t)
	w := s.GetWord(s.D.PortIn[2])
	if w.XM != 0xffff || w.TT != 0 {
		t.Fatalf("default port value = %s", w)
	}
	// logic sanity for the packed default
	if logic.Pack(logic.X0) != 2 {
		t.Fatal("packed X0 encoding changed")
	}
}
