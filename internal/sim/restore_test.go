package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/netlist"
	"repro/internal/rv32"
	"repro/internal/sim"
)

// TestBackendRestoreRealNetlists random-walks the msp430 and rv32
// processor netlists on the compiled backend and on the reference
// interpreter in lockstep: random port inputs, clocked cycles, forced
// BranchTaken/POR decisions, and restores of both the latest snapshot (a
// sibling one fork apart) and a random older one. Every net must agree
// after every Eval, so a restore that misses a changed flip-flop, or a
// force released across a restore that is not re-evaluated, fails here on
// the designs the engine actually runs.
func TestBackendRestoreRealNetlists(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *mcu.Design
	}{{"msp430", mcu.Shared()}, {"rv32", rv32.Shared()}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				walkRestores(t, tc.d, seed, 300)
			}
		})
	}
}

func walkRestores(t *testing.T, d *mcu.Design, seed int64, steps int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	nl := d.NL
	ref, err := sim.NewCircuitBackend(nl, sim.BackendInterp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.NewCircuitBackend(nl, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	sigs := []logic.Sig{logic.Zero0, logic.One0, logic.Zero0, logic.One0, logic.X0, logic.Zero1, logic.One1, logic.XT}
	inputs := nl.InputNets()
	drive := func() {
		for _, p := range inputs {
			if rnd.Intn(3) != 0 {
				continue
			}
			s := sigs[rnd.Intn(len(sigs))]
			if p.Net == d.Rst && rnd.Intn(16) != 0 {
				s = logic.Zero0 // keep the core mostly out of reset
			}
			ref.SetInput(p.Net, s)
			got.SetInput(p.Net, s)
		}
	}
	step := 0
	eval := func(forced map[netlist.NetID]logic.Sig) {
		ref.Eval(forced)
		got.Eval(forced)
		for id := 0; id < nl.NumNets(); id++ {
			if r, g := ref.Get(netlist.NetID(id)), got.Get(netlist.NetID(id)); r != g {
				t.Fatalf("seed %d step %d: net %q: interp=%s compiled=%s", seed, step, nl.Name(netlist.NetID(id)), r, g)
			}
		}
	}
	// cycle runs one cycle's three passes (inputs change between them, as
	// the behavioural memories answer) and optionally commits it.
	cycle := func(forced map[netlist.NetID]logic.Sig, commit bool) {
		for pass := 0; pass < 3; pass++ {
			drive()
			eval(forced)
		}
		if commit {
			ref.Clock()
			got.Clock()
			if ref.Toggles != got.Toggles {
				t.Fatalf("seed %d step %d: toggles interp=%d compiled=%d", seed, step, ref.Toggles, got.Toggles)
			}
		}
	}
	decision := func() map[netlist.NetID]logic.Sig {
		forced := map[netlist.NetID]logic.Sig{}
		for _, id := range []netlist.NetID{d.BranchTaken, d.POR} {
			if rnd.Intn(2) == 0 {
				forced[id] = logic.S(logic.V(rnd.Intn(2)), rnd.Intn(2) == 0)
			}
		}
		if len(forced) == 0 {
			forced[d.BranchTaken] = logic.One0
		}
		return forced
	}
	restore := func(st []logic.Packed) {
		ref.RestoreDFFState(st)
		got.RestoreDFFState(st)
	}

	// Power on: one clocked cycle under reset, then release it.
	ref.SetInput(d.Rst, logic.One0)
	got.SetInput(d.Rst, logic.One0)
	eval(nil)
	ref.Clock()
	got.Clock()
	ref.SetInput(d.Rst, logic.Zero0)
	got.SetInput(d.Rst, logic.Zero0)

	snaps := [][]logic.Packed{ref.DFFState()}
	for step = 0; step < steps; step++ {
		switch op := rnd.Intn(8); {
		case op < 3: // an ordinary committed cycle
			cycle(nil, true)
		case op < 4: // a fork: each decision from the same pre-state
			pre := ref.DFFState()
			cycle(decision(), true)
			snaps = append(snaps, ref.DFFState())
			restore(pre)
			cycle(decision(), true)
		case op < 5: // snapshot
			snaps = append(snaps, ref.DFFState())
		case op < 6: // sibling restore: the latest snapshot
			restore(snaps[len(snaps)-1])
			cycle(nil, rnd.Intn(2) == 0)
		case op < 7: // distant restore: any earlier snapshot
			restore(snaps[rnd.Intn(len(snaps))])
			cycle(nil, rnd.Intn(2) == 0)
		default: // restore straight into a forced cycle
			restore(snaps[rnd.Intn(len(snaps))])
			cycle(decision(), rnd.Intn(2) == 0)
		}
	}
}

// BenchmarkEvalAfterRestore measures the snapshot/restore layer on the
// msp430 netlist: restore a flip-flop snapshot, then evaluate one cycle
// (EvalCycle's three Evals). "sibling" alternates the two successors of
// one fork, which differ only where the branch decision reaches; "distant"
// alternates two fetches of different instructions some 33 loop iterations
// apart. Each has a full-sweep
// baseline that re-evaluates every gate after the restore. The dffs/op
// metric is the number of flip-flops a restore changes.
func BenchmarkEvalAfterRestore(b *testing.B) {
	sys, sibling, distant := restoreBenchStates(b)
	for _, pair := range []struct {
		name  string
		snaps [2][]logic.Packed
	}{{"sibling", sibling}, {"distant", distant}} {
		changed := 0
		for i := range pair.snaps[0] {
			if pair.snaps[0][i] != pair.snaps[1][i] {
				changed++
			}
		}
		for _, full := range []bool{false, true} {
			name := pair.name + "/delta"
			if full {
				name = pair.name + "/full-sweep"
			}
			snaps := pair.snaps
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys.C.RestoreDFFState(snaps[i&1])
					if full {
						sim.FullSweepNext(sys.C)
					}
					sys.EvalCycle(nil)
				}
				b.ReportMetric(float64(changed), "dffs/op")
			})
		}
	}
}

// restoreBenchStates runs a small register-churning loop on the msp430
// system and returns it with two snapshot pairs: the two successors of a
// forced conditional jump, and two instruction fetches 200 fetches (about
// 33 loop iterations, and a different instruction) apart.
func restoreBenchStates(b *testing.B) (*mcu.System, [2][]logic.Packed, [2][]logic.Packed) {
	b.Helper()
	img, err := asm.AssembleSource(`
start:  mov #0x0280, sp
        mov #200, r10
        clr r11
        mov #0x1234, r12
lp:     add r10, r11
        xor r11, r12
        rla r12
        mov r12, 0(sp)
        dec r10
        jnz lp
done:   jmp done
`)
	if err != nil {
		b.Fatal(err)
	}
	d := mcu.Shared()
	sys, err := mcu.NewSystem(d)
	if err != nil {
		b.Fatal(err)
	}
	img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.SetResetVector(img.Entry)
	sys.PowerOn()
	// fetches collects the DFF state at each instruction fetch.
	var fetches [][]logic.Packed
	var sibling [2][]logic.Packed
	for cyc := 0; cyc < 20000 && len(fetches) < 240; cyc++ {
		ci := sys.EvalCycle(nil)
		if ci.StateOK && ci.State == mcu.StFetch {
			pre := sys.C.DFFState()
			fetches = append(fetches, pre)
			// The first fetch of the loop's jnz forks both ways.
			if sibling[0] == nil && ci.Fetch.XM == 0 && ci.Fetch.Val>>10 == 0x8 {
				for dir := range sibling {
					sys.C.RestoreDFFState(pre)
					civ := sys.EvalCycle(map[netlist.NetID]logic.Sig{d.BranchTaken: logic.S(logic.V(dir), false)})
					sys.Commit(civ)
					sibling[dir] = sys.C.DFFState()
				}
				sys.C.RestoreDFFState(pre)
				ci = sys.EvalCycle(nil)
			}
		}
		sys.Commit(ci)
	}
	if len(fetches) < 240 || sibling[0] == nil {
		b.Fatalf("loop ran only %d fetches (fork found: %v)", len(fetches), sibling[0] != nil)
	}
	return sys, sibling, [2][]logic.Packed{fetches[30], fetches[230]}
}
