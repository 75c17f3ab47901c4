package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// randBackendNetlist builds a random well-formed sequential netlist: a few
// inputs, a few flip-flops, and nGates gates drawing inputs from everything
// driven so far (including constants, to exercise constant-input fanout).
func randBackendNetlist(rnd *rand.Rand, nGates int) (*netlist.Netlist, []netlist.NetID) {
	n := netlist.New()
	driven := []netlist.NetID{n.Const0(), n.Const1()}
	var inputs []netlist.NetID
	for i := 0; i < 4; i++ {
		id := n.AddInput("in" + string(rune('a'+i)))
		driven = append(driven, id)
		inputs = append(inputs, id)
	}
	nDFF := 3
	qs := make([]netlist.NetID, nDFF)
	for i := range qs {
		qs[i] = n.NewNet("")
		driven = append(driven, qs[i])
	}
	ops := []logic.Op{logic.Buf, logic.Not, logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Mux, logic.Const0, logic.Const1}
	pick := func() netlist.NetID { return driven[rnd.Intn(len(driven))] }
	for g := 0; g < nGates; g++ {
		op := ops[rnd.Intn(len(ops))]
		out := n.NewNet("")
		in := make([]netlist.NetID, op.Arity())
		for i := range in {
			in[i] = pick()
		}
		n.AddGate(op, out, in...)
		driven = append(driven, out)
	}
	for i := range qs {
		n.AddDFF(qs[i], pick(), pick(), pick(), logic.V(rnd.Intn(2)))
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n, inputs
}

var backendSigs = []logic.Sig{logic.Zero0, logic.One0, logic.X0, logic.Zero1, logic.One1, logic.XT}

// compareAllNets fails the test on the first net where the two circuits
// disagree.
func compareAllNets(t *testing.T, n *netlist.Netlist, ref, got *Circuit, step string) {
	t.Helper()
	for id := 0; id < n.NumNets(); id++ {
		r := ref.Get(netlist.NetID(id))
		g := got.Get(netlist.NetID(id))
		if r != g {
			t.Fatalf("%s: net %q: ref=%s got=%s", step, n.Name(netlist.NetID(id)), r, g)
		}
	}
}

// TestBackendEquivalence drives the reference interpreter and every other
// registered backend through identical randomized stimulus — input changes,
// evaluations, forced evaluations (including repeated and released
// forcings), clocks, snapshot restores interleaved with forcing and
// clocking, and re-inits — and demands bit-identical values on every net
// plus identical toggle counts after every operation.
func TestBackendEquivalence(t *testing.T) {
	for _, kind := range Backends() {
		if kind == BackendInterp {
			continue
		}
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rnd := rand.New(rand.NewSource(seed))
				n, inputs := randBackendNetlist(rnd, 60)
				ref, err := NewCircuitBackend(n, BackendInterp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewCircuitBackend(n, kind)
				if err != nil {
					t.Fatal(err)
				}
				// Forcing candidates: any gate-driven net or DFF output.
				var forceable []netlist.NetID
				lv, _ := n.Levelize()
				for id := 0; id < n.NumNets(); id++ {
					if lv.DriverGate[id] >= 0 || n.IsDFFOutput(netlist.NetID(id)) {
						forceable = append(forceable, netlist.NetID(id))
					}
				}
				var snaps [][]logic.Packed
				forcedEval := func() {
					forced := map[netlist.NetID]logic.Sig{}
					for k := 0; k < 1+rnd.Intn(3); k++ {
						forced[forceable[rnd.Intn(len(forceable))]] = backendSigs[rnd.Intn(len(backendSigs))]
					}
					ref.Eval(forced)
					got.Eval(forced)
				}
				clock := func(step int) {
					ref.Clock()
					got.Clock()
					if ref.Toggles != got.Toggles {
						t.Fatalf("seed %d step %d: toggles ref=%d got=%d", seed, step, ref.Toggles, got.Toggles)
					}
				}
				// restore installs a random earlier snapshot on both sides,
				// taking the first one when none exists yet.
				restore := func() {
					if len(snaps) == 0 {
						snaps = append(snaps, ref.DFFState())
					}
					st := snaps[rnd.Intn(len(snaps))]
					ref.RestoreDFFState(st)
					got.RestoreDFFState(st)
				}
				for step := 0; step < 120; step++ {
					switch op := rnd.Intn(13); {
					case op < 4: // drive some inputs, then eval
						for _, in := range inputs {
							if rnd.Intn(2) == 0 {
								s := backendSigs[rnd.Intn(len(backendSigs))]
								ref.SetInput(in, s)
								got.SetInput(in, s)
							}
						}
						ref.Eval(nil)
						got.Eval(nil)
					case op < 6: // forced evaluation
						forcedEval()
					case op < 8: // clock, then settle
						clock(step)
						ref.Eval(nil)
						got.Eval(nil)
					case op < 9: // snapshot or restore
						if len(snaps) == 0 || rnd.Intn(2) == 0 {
							snaps = append(snaps, ref.DFFState())
						} else {
							restore()
							ref.Eval(nil)
							got.Eval(nil)
						}
					case op < 10: // restore, then a forced evaluation
						restore()
						forcedEval()
					case op < 11: // a force released in the same Eval as a restore
						forcedEval()
						compareAllNets(t, n, ref, got, "seed/step (forced before restore)")
						restore()
						ref.Eval(nil)
						got.Eval(nil)
					case op < 12: // restore, clock on the restored state, settle
						restore()
						clock(step)
						ref.Eval(nil)
						got.Eval(nil)
					default: // re-init
						ref.InitX()
						got.InitX()
						ref.Eval(nil)
						got.Eval(nil)
					}
					compareAllNets(t, n, ref, got, "seed/step")
				}
			}
		})
	}
}

// TestBackendReleasedForce pins the subtlest incremental case: a net forced
// in one Eval must revert to its driver's value on the next unforced Eval,
// and consumers must observe the reversion.
func TestBackendReleasedForce(t *testing.T) {
	n := netlist.New()
	a := n.AddInput("a")
	b := n.AddInput("b")
	ab := n.NewNet("ab")
	o := n.NewNet("o")
	n.AddGate(logic.And, ab, a, b)
	n.AddGate(logic.Not, o, ab)
	for _, kind := range Backends() {
		c, err := NewCircuitBackend(n, kind)
		if err != nil {
			t.Fatal(err)
		}
		c.SetInput(a, logic.One0)
		c.SetInput(b, logic.One0)
		c.Eval(nil)
		if c.Get(o) != logic.Zero0 {
			t.Fatalf("%s: o = %s, want 0", kind, c.Get(o))
		}
		c.Eval(map[netlist.NetID]logic.Sig{ab: logic.Zero1})
		if c.Get(ab) != logic.Zero1 || c.Get(o) != logic.One1 {
			t.Fatalf("%s: forced: ab=%s o=%s", kind, c.Get(ab), c.Get(o))
		}
		// Released: ab must recompute from (a,b)=(1,1) even though neither
		// input changed since the forced Eval.
		c.Eval(nil)
		if c.Get(ab) != logic.One0 || c.Get(o) != logic.Zero0 {
			t.Fatalf("%s: released: ab=%s o=%s", kind, c.Get(ab), c.Get(o))
		}
	}
}

// TestParseBackend covers the name round-trip used by the CLIs and gliftd.
func TestParseBackend(t *testing.T) {
	for _, k := range Backends() {
		got, err := ParseBackend(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseBackend(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseBackend(""); err != nil || k != BackendCompiled {
		t.Fatalf("ParseBackend(\"\") = %v, %v; want compiled default", k, err)
	}
	if k, err := ParseBackend("interpreter"); err != nil || k != BackendInterp {
		t.Fatalf("ParseBackend(\"interpreter\") = %v, %v", k, err)
	}
	// Unknown names, the retired "bitslice" included, error with the
	// valid set.
	for _, name := range []string{"jit", "bitslice"} {
		_, err := ParseBackend(name)
		if err == nil || !strings.Contains(err.Error(), "compiled, interp") {
			t.Fatalf("ParseBackend(%q) = %v; want an error listing compiled, interp", name, err)
		}
	}
}
