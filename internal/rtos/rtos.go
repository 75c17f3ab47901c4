// Package rtos reproduces the system-level use case of Section 7.3: an IoT
// system whose (FreeRTOS-style) scheduler round-robins a trusted task (div)
// and an untrusted task (binSearch). The goals, verified by the analysis:
//
//  1. no insecure information flows across the scheduled tasks, and
//  2. no task can affect the scheduling performed by the system software.
//
// In the unprotected system the untrusted task's control flow depends on an
// untrusted input, so after it runs, the processor's control state is
// tainted: the trusted task becomes untrusted the next time it is scheduled
// and the scheduling itself is compromised (both observed as C1
// violations). The protected system masks the untrusted task's
// out-of-bounds stores and wraps it in the watchdog bound: the reset vector
// re-enters the scheduler, which re-arms the watchdog with the scheduling
// timer, exactly as the paper describes. The total overhead is small
// because the trusted work dominates the round (the paper reports 0.83%).
package rtos

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/sim"
	"repro/internal/transform"
)

// Partition layout shared with the benchmarks: the untrusted task owns
// 0x0400-0x07ff; the scheduler's state and stack live below it.
const (
	partLo   = 0x0400
	partSize = 0x0400
)

// trustedWork is the trusted div kernel, repeated to dominate the round
// (the per-round trusted work makes the watchdog idle padding small).
const trustedWork = `
; ---- trusted task: repeated 16-bit restoring division ----
div_task:
        mov #64, r13         ; trusted repetitions
div_rep:
        mov #0xbeef, r4      ; dividend (trusted constant stream)
        mov #0x0013, r5      ; divisor
        clr r6
        clr r7
        mov #16, r8
div_loop:
        rla r4
        rlc r7
        cmp r5, r7
        jl div_skip
        sub r5, r7
        bis #1, r6
div_skip:
        dec r8
        jz div_next
        rla r6
        jmp div_loop
div_next:
        mov r6, &0x0380      ; trusted result in untainted RAM
        dec r13
        jnz div_rep
        ret
`

// untrustedTask is the binSearch kernel running as the untrusted task. It
// reads a key from the untrusted port P1IN; its probe loop's control flow
// depends on that key, and the key's raw value indexes a mark table (the
// overflow store the toolflow masks). masked selects the repaired version.
func untrustedTask(masked bool) string {
	mask := ""
	if masked {
		mask = `
        and #0x03ff, r14     ; mask: inserted by root-cause analysis
        bis #0x0400, r14`
	}
	return `
; ---- untrusted task: binary search keyed by an untrusted input ----
bs_task:
        mov #TPART, r4
        mov #32, r5          ; sorted table t[i] = 4*i
        clr r6
bs_ini: mov r6, r7
        rla r7
        rla r7
        mov r6, r8
        rla r8
        add r4, r8
        mov r7, 0(r8)
        inc r6
        dec r5
        jnz bs_ini
        mov &P1IN, r9        ; untrusted key
        mov r9, r14
        rla r14
        add #TPART+128, r14` + mask + `
        mov #1, 0(r14)       ; mark the key slot (overflow when unmasked)
        clr r10
        mov #31, r11
bs_loop:
        cmp r11, r10
        jge bs_done
        mov r10, r12
        add r11, r12
        clrc
        rrc r12
        mov r12, r8
        rla r8
        add r4, r8
        mov @r8, r13
        cmp r9, r13
        jeq bs_hit
        jl bs_left
        mov r12, r11
        dec r11
        jmp bs_loop
bs_left:
        mov r12, r10
        inc r10
        jmp bs_loop
bs_hit: mov r12, &P2OUT
bs_done:
        mov r10, &P2OUT
`
}

// schedulerSource builds the complete system. In the protected variant the
// scheduler arms the watchdog before dispatching the untrusted task and the
// task parks in an in-partition idle loop until the watchdog power-on reset
// returns control to the scheduler via the reset vector; unprotected, the
// untrusted task jumps straight back.
func schedulerSource(protected bool, wdtval uint16) string {
	var sb strings.Builder
	sb.WriteString(`
.equ WDTCTL, 0x0120
.equ P1IN, 0x0020
.equ P2OUT, 0x0026
.equ TPART, 0x0400
.equ ROUND, 0x0390
; ---- scheduler (trusted system code) ----
start:  mov #0x0380, sp
sched:  add #1, &ROUND       ; scheduling round counter (survives POR)
        call #div_task       ; slice 1: trusted task (cooperative)
`)
	if protected {
		fmt.Fprintf(&sb, "        mov #0x%04x, &WDTCTL ; slice 2: arm the bound for the untrusted task\n", wdtval)
		sb.WriteString("        jmp bs_task\n")
		sb.WriteString("bs_ret: jmp bs_ret           ; unreachable: POR re-enters at start\n")
	} else {
		sb.WriteString("        jmp bs_task          ; slice 2: untrusted task (unbounded!)\n")
		sb.WriteString("bs_ret: jmp sched\n")
	}
	sb.WriteString(trustedWork)
	sb.WriteString("task_start:\n")
	sb.WriteString(untrustedTask(protected))
	if protected {
		sb.WriteString("bs_idle: jmp bs_idle        ; park until the watchdog reset\n")
	} else {
		sb.WriteString("        jmp bs_ret\n")
	}
	sb.WriteString("task_end: nop\n")
	return sb.String()
}

// System is a built scheduler system.
type System struct {
	Protected bool
	Img       *asm.Image
	Policy    *glift.Policy
	Plan      transform.WdtPlan
}

// Build assembles a variant. The watchdog interval is planned from the
// untrusted task's measured length (bounded well under one 512-cycle
// slice, so a single slice is used, as an RTOS time slice would be).
func Build(protected bool) (*System, error) {
	plan := transform.WdtPlan{}
	if protected {
		plan = transform.PlanWatchdog(450)
	}
	img, err := asm.AssembleSource(schedulerSource(protected, plan.WDTCTLValue()))
	if err != nil {
		return nil, fmt.Errorf("rtos: %w", err)
	}
	pol := &glift.Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
		TaintedCode: []glift.AddrRange{{
			Lo: img.MustSymbol("task_start"),
			Hi: img.MustSymbol("task_end"),
		}},
		TaintedData: []glift.AddrRange{{Lo: partLo, Hi: partLo + partSize}},
	}
	return &System{Protected: protected, Img: img, Policy: pol, Plan: plan}, nil
}

// Analyze runs the information flow analysis on the system.
func (s *System) Analyze(opt *glift.Options) (*glift.Report, error) {
	return glift.Analyze(s.Img, s.Policy, opt)
}

// MeasureRound runs the system concretely and returns the steady-state
// cycles of one scheduling round (trusted slice + untrusted slice).
func (s *System) MeasureRound(seed uint16, maxCycles uint64) (uint64, error) {
	sys, err := mcu.NewSystem(glift.SharedDesign())
	if err != nil {
		return 0, err
	}
	zeros := make([]byte, sys.RAM.Size())
	sys.RAM.Fill(sys.RAM.Base(), zeros)
	s.Img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.SetResetVector(s.Img.Entry)

	sched := s.Img.MustSymbol("sched")
	rng := mcu.LFSR(seed | 1)
	sys.PowerOn()
	var marks []uint64
	for sys.Cycle < maxCycles && len(marks) < 3 {
		sys.SetPortIn(0, sim.ConcreteWord(rng.Next()))
		ci := sys.EvalCycle(nil)
		if !ci.PmemOK {
			return 0, fmt.Errorf("rtos: PC unknown at cycle %d", sys.Cycle)
		}
		if ci.StateOK && ci.State == mcu.StFetch && ci.PmemAddr == sched {
			marks = append(marks, sys.Cycle)
		}
		sys.Commit(ci)
	}
	if len(marks) < 3 {
		return 0, fmt.Errorf("rtos: no steady round in %d cycles", maxCycles)
	}
	return marks[2] - marks[1], nil
}

// UseCase runs the full Section 7.3 experiment: both variants analyzed and
// measured.
type UseCase struct {
	UnprotectedReport *glift.Report
	ProtectedReport   *glift.Report
	UnprotectedRound  uint64
	ProtectedRound    uint64
	MaskedStores      int // violating stores the toolflow identified
}

// OverheadPercent is the round-time cost of the protections.
func (u *UseCase) OverheadPercent() float64 {
	if u.UnprotectedRound == 0 {
		return 0
	}
	return 100 * float64(int64(u.ProtectedRound)-int64(u.UnprotectedRound)) / float64(u.UnprotectedRound)
}

// Run executes the experiment.
func Run(opt *glift.Options) (*UseCase, error) {
	uc := &UseCase{}
	unprot, err := Build(false)
	if err != nil {
		return nil, err
	}
	if uc.UnprotectedReport, err = unprot.Analyze(opt); err != nil {
		return nil, err
	}
	uc.MaskedStores = len(uc.UnprotectedReport.ViolatingStorePCs())
	if uc.UnprotectedRound, err = unprot.MeasureRound(0xACE1, 200_000); err != nil {
		return nil, err
	}

	prot, err := Build(true)
	if err != nil {
		return nil, err
	}
	if uc.ProtectedReport, err = prot.Analyze(opt); err != nil {
		return nil, err
	}
	if uc.ProtectedRound, err = prot.MeasureRound(0xACE1, 200_000); err != nil {
		return nil, err
	}
	return uc, nil
}
