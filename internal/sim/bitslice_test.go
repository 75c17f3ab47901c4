package sim

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// bitsliceSigs are the 6 valid signals, indexable for combo enumeration.
var bitsliceSigs = []logic.Sig{logic.Zero0, logic.One0, logic.X0, logic.Zero1, logic.One1, logic.XT}

// TestBitslicePlaneFormulas proves the word-parallel plane formulas agree
// with the brute-force GLIFT ground truth (logic.Eval) for every op over
// every combination of valid input signals, with a distinct combination
// packed into every lane of the same evaluation.
func TestBitslicePlaneFormulas(t *testing.T) {
	ops := []logic.Op{logic.Const0, logic.Const1, logic.Buf, logic.Not,
		logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Mux}
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			n := netlist.New()
			arity := op.Arity()
			ins := make([]netlist.NetID, arity)
			for i := range ins {
				ins[i] = n.AddInput("in" + string(rune('a'+i)))
			}
			out := n.NewNet("out")
			n.AddGate(op, out, ins...)
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
			b, err := NewBatchBackend(n, BatchLanes)
			if err != nil {
				t.Fatal(err)
			}
			total := 1
			for i := 0; i < arity; i++ {
				total *= len(bitsliceSigs)
			}
			for base := 0; base < total; base += BatchLanes {
				chunk := total - base
				if chunk > BatchLanes {
					chunk = BatchLanes
				}
				for lane := 0; lane < chunk; lane++ {
					combo := base + lane
					for i := range ins {
						b.SetLane(lane, ins[i], bitsliceSigs[combo%len(bitsliceSigs)])
						combo /= len(bitsliceSigs)
					}
				}
				b.Eval()
				for lane := 0; lane < chunk; lane++ {
					combo := base + lane
					args := make([]logic.Sig, arity)
					for i := range args {
						args[i] = bitsliceSigs[combo%len(bitsliceSigs)]
						combo /= len(bitsliceSigs)
					}
					want := logic.Eval(op, args...)
					got := b.GetLane(lane, out)
					if got != want {
						t.Fatalf("%s%v lane %d: got %s, want %s", op, args, lane, got, want)
					}
				}
			}
		})
	}
}

// TestBatchLaneEquivalence drives a BatchBackend at every lane count 1–64
// against one reference interpreter circuit per lane, through randomized
// per-lane stimulus: independent input drives, clocks and re-inits.
func TestBatchLaneEquivalence(t *testing.T) {
	for lanes := 1; lanes <= BatchLanes; lanes++ {
		rnd := rand.New(rand.NewSource(int64(lanes) * 7919))
		n, inputs := randBackendNetlist(rnd, 40)
		batch, err := NewBatchBackend(n, lanes)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*Circuit, lanes)
		for i := range refs {
			if refs[i], err = NewCircuitBackend(n, BackendInterp); err != nil {
				t.Fatal(err)
			}
		}
		compare := func(step int) {
			for lane, ref := range refs {
				for id := 0; id < n.NumNets(); id++ {
					want := ref.Get(netlist.NetID(id))
					got := batch.GetLane(lane, netlist.NetID(id))
					if got != want {
						t.Fatalf("lanes=%d step %d lane %d net %q: batch=%s ref=%s",
							lanes, step, lane, n.Name(netlist.NetID(id)), got, want)
					}
				}
			}
		}
		for step := 0; step < 80; step++ {
			switch op := rnd.Intn(9); {
			case op < 4: // independent per-lane input drives, then eval
				for lane, ref := range refs {
					for _, in := range inputs {
						if rnd.Intn(2) == 0 {
							s := bitsliceSigs[rnd.Intn(len(bitsliceSigs))]
							ref.SetInput(in, s)
							batch.SetLane(lane, in, s)
						}
					}
					ref.Eval(nil)
				}
				batch.Eval()
			case op < 8: // clock, then settle
				batch.Clock()
				for _, ref := range refs {
					ref.Clock()
					ref.Eval(nil)
				}
				batch.Eval()
			default: // re-init every lane
				batch.InitX()
				for _, ref := range refs {
					ref.InitX()
					ref.Eval(nil)
				}
				batch.Eval()
			}
			compare(step)
		}
	}
}

// TestBatchLaneWords covers the word-level lane accessors used by the
// batched machine harness.
func TestBatchLaneWords(t *testing.T) {
	n := netlist.New()
	nets := make([]netlist.NetID, 16)
	for i := range nets {
		nets[i] = n.AddInput("w" + string(rune('a'+i)))
	}
	bb, err := NewBatchBackend(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	words := make([]Word, 8)
	for lane := range words {
		words[lane] = Word{Val: uint16(rnd.Uint32()), XM: uint16(rnd.Uint32()), TT: uint16(rnd.Uint32())}
		words[lane].Val &^= words[lane].XM // Sig() reports X bits with Val clear
		bb.SetLaneWord(lane, nets, words[lane])
	}
	bb.Eval()
	for lane := range words {
		if got := bb.GetLaneWord(lane, nets); got != words[lane] {
			t.Fatalf("lane %d: got %+v, want %+v", lane, got, words[lane])
		}
	}
}
