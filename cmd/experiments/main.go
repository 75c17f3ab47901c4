// experiments regenerates every table and figure of the paper's evaluation
// on this repository's gate-level substrate. Without flags it runs
// everything; individual artifacts can be selected.
//
// Usage:
//
//	experiments [-table N] [-fig N] [-usecase] [-starlogic] [-energy] [-ipc] [-all]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/energy"
	"repro/internal/glift"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/motivate"
	"repro/internal/rtos"
	"repro/internal/sim"
)

func main() {
	table := flag.Int("table", 0, "print one table (1-4)")
	fig := flag.Int("fig", 0, "print one figure (1, 2-5, 7, 8, 9)")
	usecase := flag.Bool("usecase", false, "run the Section 7.3 RTOS use case")
	starlogic := flag.Bool("starlogic", false, "run the *-logic baseline (Footnote 8)")
	energyF := flag.Bool("energy", false, "report energy overheads")
	ipc := flag.Bool("ipc", false, "report benchmark CPI")
	all := flag.Bool("all", false, "run everything")
	flag.Parse()

	any := *table != 0 || *fig != 0 || *usecase || *starlogic || *energyF || *ipc
	if !any {
		*all = true
	}
	if *all {
		for _, f := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			figure(f)
		}
		for _, t := range []int{1, 2, 3, 4} {
			printTable(t)
		}
		useCase()
		starLogic()
		energyReport()
		ipcReport()
		return
	}
	if *fig != 0 {
		figure(*fig)
	}
	if *table != 0 {
		printTable(*table)
	}
	if *usecase {
		useCase()
	}
	if *starlogic {
		starLogic()
	}
	if *energyF {
		energyReport()
	}
	if *ipc {
		ipcReport()
	}
}

// evaluations are shared across tables.
var evalCache []*bench.Evaluation

func evaluations() []*bench.Evaluation {
	if evalCache != nil {
		return evalCache
	}
	fmt.Fprintln(os.Stderr, "evaluating all benchmarks...")
	evs, err := bench.EvaluateAll()
	if err != nil {
		fatal(err)
	}
	evalCache = evs
	return evalCache
}

func figure(n int) {
	switch n {
	case 1:
		fmt.Println("== Figure 1: GLIFT truth table for a NAND gate ==")
		fmt.Println("A AT B BT | O OT")
		for _, r := range logic.NANDTruthTable() {
			fmt.Printf("%d  %d %d  %d | %d  %d\n", r.A, r.AT, r.B, r.BT, r.O, r.OT)
		}
	case 2, 3, 4, 5:
		s := motivate.Scenarios()[n-2]
		fmt.Printf("== Figure %d: %s ==\n", n, s.Name)
		res, err := motivate.Run(s, nil)
		if err != nil {
			fatal(err)
		}
		if s.Unknown {
			fmt.Printf("*-logic view: PC unknown=%v, %.0f%% of gates tainted, watchdog tainted=%v\n",
				res.Star.PCBecameUnknown, 100*res.Star.GateTaintFraction, res.Star.WatchdogTainted)
		} else {
			fmt.Printf("analysis: secure=%v, %d violations\n", res.Secure, len(res.Report.Violations))
			for _, v := range res.Report.Violations {
				fmt.Printf("  %s\n", v)
			}
		}
		fmt.Printf("paper: %s\n\n", s.Expect)
	case 7:
		fmt.Println("== Figure 7: application-specific gate-level IFT execution tree ==")
		tree, err := glift.Figure7()
		if err != nil {
			fatal(err)
		}
		for _, r := range tree.Common {
			fmt.Println("  " + r.String())
		}
		fmt.Println(" left path (tainted reset):")
		for _, r := range tree.Left {
			fmt.Println("  " + r.String())
		}
		fmt.Println(" right path (untainted reset):")
		for _, r := range tree.Right {
			fmt.Println("  " + r.String())
		}
	case 8:
		figure8()
	case 9:
		figure9()
	default:
		fatal(fmt.Errorf("unknown figure %d", n))
	}
}

// figure8 analyzes the unprotected and watchdog-protected listings.
func figure8() {
	fmt.Println("== Figure 8: untainted watchdog timer reset ==")
	for _, s := range motivate.Figure8() {
		res, err := motivate.Run(s, nil)
		if err != nil {
			fatal(err)
		}
		rep := res.Report
		fmt.Printf(" %s: %d violations", s.Name, len(rep.Violations))
		if c := rep.ViolatedConditions(); len(c) > 0 {
			fmt.Printf(" (conditions %v)", c)
		}
		fmt.Printf("\n   paper: %s\n", s.Expect)
	}
	fmt.Println()
}

// figure9 reproduces the memory-mask example by measuring the data-memory
// taint footprint of the unmasked and masked listings directly.
func figure9() {
	fmt.Println("== Figure 9: software masked addressing ==")
	for _, s := range motivate.Figure9() {
		img, err := asm.AssembleSource(s.Source)
		if err != nil {
			fatal(err)
		}
		sys, err := mcu.NewSystem(glift.SharedDesign())
		if err != nil {
			fatal(err)
		}
		img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
		sys.SetResetVector(img.Entry)
		sys.SetPortIn(0, sim.Word{XM: 0xffff, TT: 0xffff}) // tainted unknown input
		sys.PowerOn()
		for i := 0; i < 30; i++ {
			sys.Step()
		}
		inside := sys.RAM.TaintedBytes(0x0400, 0x0800)
		outside := sys.RAM.TaintedBytes(0x0200, 0x0400) + sys.RAM.TaintedBytes(0x0800, 0x0a00)
		fmt.Printf(" %s: %d tainted bytes inside the tainted partition, %d outside\n", s.Name, inside, outside)
		fmt.Printf("   paper: %s\n", s.Expect)
	}
	fmt.Println()
}

func printTable(n int) {
	switch n {
	case 1:
		fmt.Println("== Table 1: benchmarks ==")
		fmt.Println("Embedded sensor benchmarks [34]:")
		for _, b := range bench.All() {
			if b.Suite == "sensor" {
				fmt.Printf("  %s", b.Name)
			}
		}
		fmt.Println("\nEEMBC embedded benchmarks [35]:")
		for _, b := range bench.All() {
			if b.Suite == "eembc" {
				fmt.Printf("  %s", b.Name)
			}
		}
		fmt.Println()
	case 2:
		rows, _ := bench.Tables(evaluations())
		fmt.Println("== Table 2: sufficient-condition violations before/after modification ==")
		fmt.Printf("%-10s | unmodified C1 C2 | modified C1 C2\n", "benchmark")
		for _, r := range rows {
			fmt.Printf("%-10s |      %s  %s      |      %s  %s\n",
				r.Name, check(r.UnmodC1), check(r.UnmodC2), check(r.ModC1), check(r.ModC2))
		}
	case 3:
		_, rows := bench.Tables(evaluations())
		fmt.Println("== Table 3: performance overhead (%) with and without application-specific analysis ==")
		fmt.Printf("%-10s | %9s %9s | paper: %9s %9s\n", "benchmark", "without", "with", "without", "with")
		for _, r := range rows {
			fmt.Printf("%-10s | %8.2f%% %8.2f%% | paper: %8.2f%% %8.2f%%\n",
				r.Name, r.Without, r.With, r.PaperWithout, r.PaperWith)
		}
		fmt.Printf("overhead reduction factor: %.2fx (paper: 3.3x)\n", bench.ReductionFactor(rows))
	case 4:
		fmt.Println("== Table 4: microarchitectural features in recent embedded processors ==")
		fmt.Printf("%-26s %-16s %s\n", "Processor", "BranchPredictor", "Cache")
		for _, p := range table4 {
			fmt.Printf("%-26s %-16s %s\n", p.name, yn(p.bp), yn(p.cache))
		}
	default:
		fatal(fmt.Errorf("unknown table %d", n))
	}
	fmt.Println()
}

var table4 = []struct {
	name      string
	bp, cache bool
}{
	{"ARM Cortex-M0", false, false},
	{"ARM Cortex-M3", true, false},
	{"Atmel ATxmega128A4", false, false},
	{"Freescale/NXP MC13224v", false, false},
	{"Intel Quark-D1000", true, true},
	{"Jennic/NXP JN5169", false, false},
	{"SiLab Si2012", false, false},
	{"TI MSP430", false, false},
}

func useCase() {
	fmt.Println("== Section 7.3: information flow secure scheduling ==")
	uc, err := rtos.Run(nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("unprotected: %d violations (conditions %v), %d violating stores identified\n",
		len(uc.UnprotectedReport.Violations), uc.UnprotectedReport.ViolatedConditions(), uc.MaskedStores)
	fmt.Printf("protected:   secure=%v\n", uc.ProtectedReport.Secure())
	fmt.Printf("round: %d -> %d cycles, overhead %.2f%% (paper: 0.83%%)\n\n",
		uc.UnprotectedRound, uc.ProtectedRound, uc.OverheadPercent())
}

func starLogic() {
	fmt.Println("== Footnote 8: *-logic on applications with tainted control dependences ==")
	for _, name := range []string{"binSearch", "div", "tHold"} {
		bt, err := bench.BuildUnmodified(bench.ByName(name))
		if err != nil {
			fatal(err)
		}
		rep, err := glift.StarLogic(bt.Img, bt.Policy, 64)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s: PC unknown=%v, %.0f%% of gates tainted, watchdog tainted=%v (paper: ~70%%, wdt tainted)\n",
			name, rep.PCBecameUnknown, 100*rep.GateTaintFraction, rep.WatchdogTainted)
	}
	fmt.Println()
}

func energyReport() {
	fmt.Println("== Energy overhead of analysis-guided protection ==")
	model := energy.Default
	var sum float64
	n := 0
	for _, ev := range evaluations() {
		if ev.WithMeasure == nil {
			fmt.Printf("%-10s: (multi-slice plan: cycle-bound model only)\n", ev.Bench.Name)
			continue
		}
		o := model.OverheadPercent(
			ev.UnmodMeasure.PeriodCycles, ev.UnmodMeasure.Toggles,
			ev.WithMeasure.PeriodCycles, ev.WithMeasure.Toggles)
		fmt.Printf("%-10s: %6.2f%%\n", ev.Bench.Name, o)
		sum += o
		n++
	}
	fmt.Printf("average: %.1f%% over %d benchmarks (paper: 15%% average)\n\n", sum/float64(n), n)
}

func ipcReport() {
	fmt.Println("== Benchmark CPI (paper: 1.25-1.39) ==")
	for _, ev := range evaluations() {
		st := ev.UnmodReport.Stats
		fmt.Printf("%-10s: CPI %.2f; analysis: %s in %s\n",
			ev.Bench.Name, ev.UnmodMeasure.CPI(), st, time.Duration(st.WallNanos).Round(time.Millisecond))
	}
	fmt.Println()
}

func check(b bool) string {
	if b {
		return "X"
	}
	return "-"
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
