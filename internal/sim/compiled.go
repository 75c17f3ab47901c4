package sim

import (
	"math/bits"
	"sync"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Instruction kinds of the compiled stream.
const (
	ckConst uint8 = iota
	ckUnary
	ckBinary
	ckMux
)

// Lookup tables of all ops concatenated into one flat array, shared by every
// compiled backend instance: per-instruction offsets into it replace the
// per-gate op switch of the interpreter.
var (
	flatOnce sync.Once
	flatTab  []logic.Packed
	flatOff  map[logic.Op]int32
)

func flatLUT() ([]logic.Packed, map[logic.Op]int32) {
	flatOnce.Do(func() {
		flatOff = make(map[logic.Op]int32)
		add := func(op logic.Op, row []logic.Packed) {
			flatOff[op] = int32(len(flatTab))
			flatTab = append(flatTab, row...)
		}
		for _, op := range []logic.Op{logic.Buf, logic.Not} {
			add(op, logic.LUT1(op))
		}
		for _, op := range []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor} {
			add(op, logic.LUT2(op))
		}
		add(logic.Mux, logic.LUTMux())
	})
	return flatTab, flatOff
}

// instr is one lowered gate. tab is the gate's offset into the flat LUT
// (for ckConst, the packed output value itself); in0..in2 are input net
// indices (in0 is a mux's select), unused ones zero.
type instr struct {
	out, tab, in0, in1, in2 int32
	kind                    uint8
}

// compiled is the default evaluation backend. Construction lowers the
// netlist once into a flat instruction stream in level order (one instr
// record per gate), plus a CSR fanout adjacency from nets to the
// instructions consuming them, both derived from netlist.Levelize.
//
// Eval is change-driven: a dirty bitset over instruction positions is
// seeded by the nets that changed since the last Eval (host Sets, flip-flop
// outputs written by Clock or RestoreDFFState, forced nets, and nets whose
// forcing was released), and only instructions whose inputs actually
// changed value are re-evaluated. Level order is topological — a gate's
// consumers always sit at strictly higher positions — so draining the
// bitset by ascending position evaluates every dirty gate exactly once,
// after all its dirty inputs settled. The fixpoint is identical to the
// interpreter's full sweep, which is what keeps analysis reports
// byte-identical across backends.
//
// A restore is a bulk flip-flop update like a clock edge: it enqueues only
// the flip-flops whose value differs, so restoring a sibling snapshot costs
// what it changes, not the whole netlist. Only InitX invalidates
// incremental knowledge (its all-X value array is not a fixpoint); the next
// Eval then runs one full sweep and incremental evaluation resumes.
type compiled struct {
	nl   *netlist.Netlist
	v    []logic.Packed // current value of every net
	tmp  []logic.Packed // scratch for DFF next-state computation
	rstv []logic.Packed // per-DFF packed (untainted) reset value

	code []instr // the instruction stream, index = position in level order
	flat []logic.Packed

	fanIdx    []int32 // CSR: net -> consuming instruction positions
	fan       []int32
	driverPos []int32 // net -> driving instruction position, or -1

	dirty []uint64 // bitset over instruction positions awaiting evaluation
	// epoch counts the Evals that force nets; forcedEp stamps each net such
	// an Eval forces, and is read only while one runs.
	epoch      uint64
	forcedEp   []uint64
	pending    []netlist.NetID // nets changed since the last Eval
	prevForced []netlist.NetID // nets forced by the previous Eval
	needFull   bool
}

func newCompiled(nl *netlist.Netlist) (*compiled, error) {
	lv, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	ng, nn := len(nl.Gates), nl.NumNets()
	flat, off := flatLUT()
	c := &compiled{
		nl:        nl,
		v:         make([]logic.Packed, nn),
		tmp:       make([]logic.Packed, len(nl.DFFs)),
		rstv:      make([]logic.Packed, len(nl.DFFs)),
		code:      make([]instr, ng),
		flat:      flat,
		driverPos: make([]int32, nn),
		dirty:     make([]uint64, (ng+63)/64),
		forcedEp:  make([]uint64, nn),
		needFull:  true,
	}
	for i, d := range nl.DFFs {
		c.rstv[i] = logic.Pack(logic.S(d.RstVal, false))
	}
	pos := make([]int32, ng) // gate index -> instruction position
	for p, gi := range lv.Order {
		g := &nl.Gates[gi]
		pos[gi] = int32(p)
		in := &c.code[p]
		in.out = int32(g.Out)
		switch g.Op.Arity() {
		case 0:
			in.kind = ckConst
			if g.Op == logic.Const1 {
				in.tab = int32(logic.Pack(logic.One0))
			} else {
				in.tab = int32(logic.Pack(logic.Zero0))
			}
		case 1:
			in.kind = ckUnary
			in.tab = off[g.Op]
			in.in0 = int32(g.In[0])
		case 2:
			in.kind = ckBinary
			in.tab = off[g.Op]
			in.in0 = int32(g.In[0])
			in.in1 = int32(g.In[1])
		default:
			in.kind = ckMux
			in.tab = off[logic.Mux]
			in.in0 = int32(g.In[0]) // select
			in.in1 = int32(g.In[1])
			in.in2 = int32(g.In[2])
		}
	}
	c.fanIdx = make([]int32, nn+1)
	copy(c.fanIdx, lv.FanoutIndex)
	c.fan = make([]int32, c.fanIdx[nn])
	for id := 0; id < nn; id++ {
		dst := c.fan[c.fanIdx[id]:c.fanIdx[id+1]]
		for i, gi := range lv.NetFanout(netlist.NetID(id)) {
			dst[i] = pos[gi]
		}
		if g := lv.DriverGate[id]; g >= 0 {
			c.driverPos[id] = pos[g]
		} else {
			c.driverPos[id] = -1
		}
	}
	return c, nil
}

func (c *compiled) vals() []logic.Packed { return c.v }

func (c *compiled) Get(id netlist.NetID) logic.Packed { return c.v[id] }

func (c *compiled) Set(id netlist.NetID, p logic.Packed) {
	if c.v[id] != p {
		c.v[id] = p
		if !c.needFull {
			c.pending = append(c.pending, id)
		}
	}
}

func (c *compiled) InitX() {
	xp := logic.Pack(logic.X0)
	for i := range c.v {
		c.v[i] = xp
	}
	c.v[c.nl.Const0()] = logic.Pack(logic.Zero0)
	c.v[c.nl.Const1()] = logic.Pack(logic.One0)
	c.pending = c.pending[:0]
	c.needFull = true
}

func (c *compiled) Eval(forced map[netlist.NetID]logic.Sig) {
	isForced := len(forced) > 0
	if isForced {
		c.epoch++
		for id, s := range forced {
			c.forcedEp[id] = c.epoch
			c.Set(id, logic.Pack(s))
		}
	}
	if c.needFull {
		c.fullSweep(isForced)
		c.needFull = false
		c.pending = c.pending[:0]
	} else {
		// A net forced last Eval but not this one reverts to whatever its
		// combinational driver computes (sourceless nets — inputs, DFF
		// outputs — simply hold their value, like in the interpreter).
		for _, id := range c.prevForced {
			if isForced && c.forcedEp[id] == c.epoch {
				continue
			}
			if dp := c.driverPos[id]; dp >= 0 {
				c.mark(dp)
			}
		}
		for _, id := range c.pending {
			c.seed(id)
		}
		c.pending = c.pending[:0]
		c.drain(isForced)
	}
	c.prevForced = c.prevForced[:0]
	for id := range forced {
		c.prevForced = append(c.prevForced, id)
	}
}

// mark flags one instruction position for the next drain.
func (c *compiled) mark(p int32) { c.dirty[p>>6] |= 1 << uint(p&63) }

// seed marks every consumer of a changed net dirty.
func (c *compiled) seed(id netlist.NetID) {
	for _, p := range c.fan[c.fanIdx[id]:c.fanIdx[id+1]] {
		c.mark(p)
	}
}

// drain evaluates the dirty instructions in ascending position. An
// instruction only ever dirties strictly higher positions (its consumers
// are deeper), so each one is final when the scan reaches it; re-reading
// the current word picks up consumers marked within it.
func (c *compiled) drain(isForced bool) {
	v, dirty := c.v, c.dirty
	for w := range dirty {
		for dirty[w] != 0 {
			p := w<<6 | bits.TrailingZeros64(dirty[w])
			dirty[w] &= dirty[w] - 1
			in := &c.code[p]
			o := in.out
			if isForced && c.forcedEp[o] == c.epoch {
				continue // the forced value wins over the driver this Eval
			}
			if nv := c.evalInstr(in); nv != v[o] {
				v[o] = nv
				c.seed(netlist.NetID(o))
			}
		}
	}
}

func (c *compiled) evalInstr(in *instr) logic.Packed {
	v := c.v
	switch in.kind {
	case ckUnary:
		return c.flat[in.tab+int32(v[in.in0])]
	case ckBinary:
		return c.flat[in.tab+int32(v[in.in0])*logic.NumPacked+int32(v[in.in1])]
	case ckMux:
		return c.flat[in.tab+(int32(v[in.in0])*logic.NumPacked+int32(v[in.in1]))*logic.NumPacked+int32(v[in.in2])]
	default:
		return logic.Packed(in.tab)
	}
}

// fullSweep evaluates the whole stream in level order, used for the first
// Eval and after InitX.
func (c *compiled) fullSweep(isForced bool) {
	for p := range c.code {
		in := &c.code[p]
		if isForced && c.forcedEp[in.out] == c.epoch {
			continue
		}
		c.v[in.out] = c.evalInstr(in)
	}
}

func (c *compiled) Clock() uint64 {
	dffs := c.nl.DFFs
	v := c.v
	for i := range dffs {
		d := &dffs[i]
		held := logic.EvalMux(v[d.En], v[d.Q], v[d.D])
		c.tmp[i] = logic.EvalMux(v[d.Rst], held, c.rstv[i])
	}
	var toggles uint64
	for i := range dffs {
		q := dffs[i].Q
		if (v[q]^c.tmp[i])&3 != 0 {
			toggles++
		}
		c.Set(q, c.tmp[i])
	}
	return toggles
}

func (c *compiled) DFFState() []logic.Packed {
	out := make([]logic.Packed, len(c.nl.DFFs))
	for i, d := range c.nl.DFFs {
		out[i] = c.v[d.Q]
	}
	return out
}

func (c *compiled) RestoreDFFState(st []logic.Packed) {
	for i, d := range c.nl.DFFs {
		c.Set(d.Q, st[i])
	}
}
