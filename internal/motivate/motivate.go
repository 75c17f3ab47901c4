// Package motivate reproduces the motivating examples of Section 3
// (Figures 2-5): the same commodity processor running (2) an unknown
// application, (3) a known application with cleanly separated flows, (4) a
// known application that uses a tainted input as a store offset, and (5)
// the same application repaired by masking. Together they make the paper's
// argument: application knowledge turns "must assume every violation is
// possible" into a per-application guarantee, and software-only repairs
// suffice. The package also holds the Figure 8 and Figure 9
// micro-benchmarks as scenarios, shared by cmd/experiments and the root
// benchmark harness.
package motivate

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/glift"
)

// Scenario is one motivating example or micro-benchmark. The code between
// its t_start and t_end labels, when it has them, is tainted code.
type Scenario struct {
	Figure  int
	Name    string
	Source  string // assembly, empty for the unknown-application scenario
	Policy  *glift.Policy
	Expect  string // the paper's conclusion for the figure
	Secure  bool   // whether the analysis should prove security
	Unknown bool   // Figure 2: the application is unknown
}

// policy43 is the Figures 3-5 policy: P1 tainted in, P2 tainted out,
// tainted partition for the c[] array, untainted d[] partition elsewhere.
func policy43() *glift.Policy {
	return &glift.Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
		TaintedData:     []glift.AddrRange{{Lo: 0x0400, Hi: 0x0800}},
	}
}

// Scenarios returns the four figures in order.
func Scenarios() []*Scenario {
	return []*Scenario{
		{
			Figure:  2,
			Name:    "unknown application",
			Unknown: true,
			Expect: "an unknown application may read every tainted source and write every untainted sink: " +
				"only secure-by-design hardware can guarantee information flow security",
		},
		{
			Figure: 3,
			Name:   "known application, separated flows",
			Source: `
; Figure 3: tainted code uses tainted ports into its own partition,
; untainted code uses untainted ports into the untainted partition.
.equ P1IN, 0x0020
.equ P2OUT, 0x0026
.equ P3IN, 0x0028
.equ P4OUT, 0x002e
start:  jmp t_start
t_done: mov #25, r10         ; for i in 0..24: d[i] = P3 + d[i]
        mov #0x0200, r4      ; d[] in the untainted partition
loop2:  mov &P3IN, r5
        add @r4, r5
        mov r5, 0(r4)
        mov r5, &P4OUT
        incd r4
        dec r10
        jnz loop2
        jmp start
t_start:                     ; ---- tainted task ----
        mov #25, r10         ; for i in 0..24: c[i+3] = P1 + c[i]
        mov #0x0400, r4      ; c[] in the tainted partition
loop1:  mov &P1IN, r5
        add @r4, r5
        mov r5, 6(r4)        ; c[i+3]
        mov r5, &P2OUT
        incd r4
        dec r10
        jnz loop1
        clr r4               ; register hygiene before yielding
        clr r5
        mov #0, sr
        jmp t_done
t_end:  nop
`,
			Policy: policy43(),
			Secure: true,
			Expect: "no insecure information flows are possible: the system is secure on a commodity processor " +
				"with no hardware or software changes",
		},
		{
			Figure: 4,
			Name:   "tainted offset store",
			Source: `
; Figure 4: the base pointer (offset) is read from the tainted port and
; used to address a store — tainted data can reach the untainted memory.
.equ P1IN, 0x0020
.equ P2OUT, 0x0026
start:  jmp t_start
t_done: jmp start
t_start:                     ; ---- tainted task ----
        mov &P1IN, r6        ; offset = <P1>
        mov #25, r10
        mov #0x0400, r4
loop:   mov &P1IN, r5        ; a = <P1>
        add @r4, r5
        mov r4, r7           ; &c[i + offset]
        add r6, r7
        add r6, r7
        add #6, r7
        mov r5, 0(r7)
        mov r5, &P2OUT
        incd r4
        dec r10
        jnz loop
        clr r4
        clr r5
        clr r6
        clr r7
        mov #0, sr
        jmp t_done
t_end:  nop
`,
			Policy: policy43(),
			Secure: false,
			Expect: "the tainted write offset lets tainted data reach untainted memory: the application is " +
				"vulnerable to an insecure information flow",
		},
		{
			Figure: 5,
			Name:   "masked offset store",
			Source: `
; Figure 5: Offset = mask(offset) pins the computed addresses inside the
; tainted partition, eliminating the violation in software.
.equ P1IN, 0x0020
.equ P2OUT, 0x0026
start:  jmp t_start
t_done: jmp start
t_start:                     ; ---- tainted task ----
        mov &P1IN, r6        ; offset = <P1>
        mov #25, r10
        mov #0x0400, r4
loop:   mov &P1IN, r5
        add @r4, r5
        mov r4, r7
        add r6, r7
        add r6, r7
        add #6, r7
        and #0x03ff, r7      ; Offset = mask(offset)
        bis #0x0400, r7
        mov r5, 0(r7)
        mov r5, &P2OUT
        incd r4
        dec r10
        jnz loop
        clr r4
        clr r5
        clr r6
        clr r7
        mov #0, sr
        jmp t_done
t_end:  nop
`,
			Policy: policy43(),
			Secure: true,
			Expect: "masking the tainted address renders the system immune to insecure information flows: " +
				"security restored purely in software",
		},
	}
}

// Result is the analyzed outcome of a scenario.
type Result struct {
	Scenario *Scenario
	Report   *glift.Report // nil for the unknown-application scenario
	Star     *glift.StarReport
	Secure   bool
}

// Run analyzes one scenario.
func Run(s *Scenario, opt *glift.Options) (*Result, error) {
	if s.Unknown {
		// Figure 2: with no application knowledge, analyze a program whose
		// control flow immediately depends on unknown tainted input — the
		// application-agnostic *-logic view degrades to "everything may be
		// tainted".
		img, err := asm.AssembleSource(`
.equ P1IN, 0x0020
start:  mov &P1IN, r5
        and #3, r5
loop:   dec r5
        jnz loop
        jmp start
`)
		if err != nil {
			return nil, err
		}
		star, err := glift.StarLogic(img, &glift.Policy{Name: "integrity", TaintedInPorts: []int{0}}, 64)
		if err != nil {
			return nil, err
		}
		return &Result{Scenario: s, Star: star, Secure: false}, nil
	}
	img, err := asm.AssembleSource(s.Source)
	if err != nil {
		return nil, fmt.Errorf("figure %d: %w", s.Figure, err)
	}
	pol := *s.Policy
	if lo, ok := img.Symbol("t_start"); ok {
		hi := img.MustSymbol("t_end")
		pol.TaintedCode = []glift.AddrRange{{Lo: lo, Hi: hi}}
	}
	rep, err := glift.Analyze(img, &pol, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: s, Report: rep, Secure: rep.Secure()}, nil
}

// RunAll analyzes every scenario.
func RunAll(opt *glift.Options) ([]*Result, error) {
	var out []*Result
	for _, s := range Scenarios() {
		r, err := Run(s, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// microPolicy is the Figures 8 and 9 policy: P1 tainted in and the
// 0x0400-0x0800 partition tainted. Figure 8's unprotected task also runs
// from tainted code words.
func microPolicy(taintCodeWords bool) *glift.Policy {
	return &glift.Policy{
		Name:           "integrity",
		TaintedInPorts: []int{0},
		TaintedData:    []glift.AddrRange{{Lo: 0x0400, Hi: 0x0800}},
		TaintCodeWords: taintCodeWords,
	}
}

// Figure8 returns the Figure 8 micro-benchmarks: a task that loops in
// tainted code with no way back to a trusted PC, and the same task bounded
// by the watchdog timer.
func Figure8() []*Scenario {
	return []*Scenario{
		{
			Figure: 8,
			Name:   "unprotected",
			Source: `
start:  nop
t_start: mov #100, r10
loop:   nop
        nop
        dec r10
        jnz loop
        jmp start
t_end:  nop
`,
			Policy: microPolicy(true),
			Expect: "once the PC is tainted it never becomes untainted again",
		},
		{
			Figure: 8,
			Name:   "watchdog-protected",
			Source: `
.equ WDTCTL, 0x0120
start:  mov #0x5a03, &WDTCTL
t_start: mov &0x0020, r10
        and #3, r10
loop:   nop
        dec r10
        jnz loop
spin:   jmp spin
t_end:  nop
`,
			Policy: microPolicy(false),
			Secure: true,
			Expect: "each execution of the untainted code section has a trusted PC",
		},
	}
}

// Figure9 returns the Figure 9 micro-benchmarks: a store through an address
// computed from the tainted input, unmasked and masked into the tainted
// partition.
func Figure9() []*Scenario {
	return []*Scenario{
		{
			Figure: 9,
			Name:   "unmasked",
			Source: `
start:  mov #4096, &0x0450
        mov #0x0449, r15
        mov.b #1, 0(r15)
        mov &0x0020, r15     ; read untrusted input
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
        mov r15, &0x0400
done:   jmp done
`,
			Policy: microPolicy(false),
			Expect: "the store taints the whole data memory space",
		},
		{
			Figure: 9,
			Name:   "masked",
			Source: `
start:  mov #4096, &0x0450
        mov #0x0449, r15
        mov.b #1, 0(r15)
        mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        and #0x03ff, r14
        bis #0x0400, r14
        mov #500, 0(r14)
        mov r15, &0x0400
done:   jmp done
`,
			// The mask confines the store; the listing is still not secure,
			// because its untainted code reads the tainted port.
			Policy: microPolicy(false),
			Expect: "no untainted memory locations become tainted",
		},
	}
}
