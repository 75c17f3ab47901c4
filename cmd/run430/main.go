// run430 executes a program concretely on a gate-level microcontroller:
// deterministic pseudo-random (or fixed) port inputs, cycle/instruction
// statistics, final register/memory state, and an optional VCD waveform
// with per-net taint channels. -target selects the processor target
// (default msp430).
//
// SIGINT or -deadline expiry stops the simulation cleanly: the statistics
// and machine state accumulated so far are still printed (and the VCD, if
// any, is flushed).
//
// Usage:
//
//	run430 [-cycles N] [-deadline D] [-p1 0xVALUE | -seed S] [-vcd out.vcd] [-taint-p1] app.s43
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/mcu"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/target"
)

func main() {
	targetName := flag.String("target", "", target.FlagHelp())
	cycles := flag.Uint64("cycles", 10_000, "cycles to run")
	deadline := flag.Duration("deadline", 0, "wall-clock simulation deadline (0: none)")
	p1 := flag.Int("p1", -1, "fixed P1IN value (default: LFSR per cycle)")
	seed := flag.Uint("seed", 0xACE1, "LFSR seed for port inputs")
	vcdPath := flag.String("vcd", "", "write a VCD waveform here")
	taintP1 := flag.Bool("taint-p1", false, "drive P1IN as tainted unknown (symbolic)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: run430 [flags] app.s43")
		os.Exit(2)
	}
	tgt, err := target.Parse(*targetName)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := tgt.Assemble(string(src))
	if err != nil {
		fatal(err)
	}

	d := tgt.Design()
	sys, err := mcu.NewSystem(d)
	if err != nil {
		fatal(err)
	}
	zeros := make([]byte, sys.RAM.Size())
	sys.RAM.Fill(sys.RAM.Base(), zeros)
	img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.SetResetVector(img.Entry)

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		nets := []string{"cpu.pc0", "cpu.pc1", "cpu.pc2", "cpu.pc3", "por", "wdt.wdt_we"}
		if tgt.Name == "msp430" {
			nets = append(nets, "jump.branch_taken")
		}
		v, err := sys.AttachVCD(f, nets)
		if err != nil {
			fatal(err)
		}
		defer v.Flush()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	rng := mcu.LFSR(uint16(*seed) | 1)
	sys.PowerOn()
	insns := uint64(0)
	for sys.Cycle < *cycles {
		if sys.Cycle&1023 == 0 && ctx.Err() != nil {
			fmt.Printf("simulation stopped early (%v); statistics below are partial\n", ctx.Err())
			break
		}
		switch {
		case *taintP1:
			sys.SetPortIn(0, sim.Word{XM: 0xffff, TT: 0xffff})
		case *p1 >= 0:
			sys.SetPortIn(0, sim.ConcreteWord(uint16(*p1)))
		default:
			sys.SetPortIn(0, sim.ConcreteWord(rng.Next()))
		}
		ci := sys.EvalCycle(nil)
		if !ci.PmemOK {
			fmt.Printf("PC became unknown at cycle %d (symbolic control flow needs gliftcheck)\n", sys.Cycle)
			break
		}
		if ci.StateOK && ci.State == mcu.StFetch {
			insns++
		}
		sys.Commit(ci)
	}

	fmt.Printf("ran %d cycles, %d instructions (CPI %.2f), %d flip-flop toggles\n",
		sys.Cycle, insns, float64(sys.Cycle)/float64(insns), sys.C.Toggles)
	sys.EvalCycle(nil)
	fmt.Println("registers:")
	fmt.Printf("  %-3s %s\n", "pc", sys.GetWord(d.PC))
	if d.SR != nil {
		fmt.Printf("  %-3s %s\n", "sr", sys.GetWord(d.SR))
	}
	for r := 0; r < 16; r++ {
		// Slots without nets are aliased state (PC/SR) or constant
		// generators; both are covered above or meaningless to print.
		if d.Regs[r] == nil || d.RegName[r] == "" {
			continue
		}
		fmt.Printf("  %-3s %s\n", d.RegName[r], regString(sys, d.Regs[r]))
	}
	if n := sys.RAM.TaintedBytes(d.Map.RAMStart, d.Map.RAMEnd); n > 0 {
		fmt.Printf("tainted data-memory bytes: %d\n", n)
	}
	for _, ev := range sys.Events() {
		fmt.Println("event:", ev)
	}
}

// regString renders one architectural register; registers wider than a
// simulation word print as hi:lo halves.
func regString(sys *mcu.System, nets synth.Word) string {
	if len(nets) <= 16 {
		return sys.GetWord(nets).String()
	}
	return sys.GetWord(nets[16:]).String() + ":" + sys.GetWord(nets[:16]).String()
}

// fatal reports a usage/input error; exit code 2 matches the
// gliftcheck/secure430 contract.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "run430:", err)
	os.Exit(2)
}
