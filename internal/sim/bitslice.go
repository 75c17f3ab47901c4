package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// BatchLanes is the lane capacity of one bitsliced evaluation word: every
// net is held as three uint64 bit-planes, so one word operation evaluates a
// gate across up to 64 independent analysis contexts at once.
const BatchLanes = 64

// BatchBackend evaluates one netlist across up to 64 independent lanes in
// lockstep: lane i of every plane word is its own machine context with its
// own inputs and flip-flop state. One Eval/Clock advances every lane at
// once, which is what the batched fault campaign (internal/fault, through
// mcu.BatchSystem) builds on. The per-lane protocol is the scalar Circuit
// protocol per lane: SetLane, Eval, GetLane, Clock. Lanes the host stops
// reading keep evaluating; their words ride along for free.
//
// Each net carries three uint64 planes, where bit i of each word is lane
// i's state:
//
//	L ("can be 0")  H ("can be 1")  T (taint)
//	0:  L=1 H=0         1:  L=0 H=1         X:  L=1 H=1
//
// (L=0,H=0 — the empty value — never occurs.) GLIFT propagation for each
// gate op becomes a handful of straight-line AND/OR/NOT word ops on the
// input planes (see evalGate), exactly equivalent per lane to the
// logic.Eval LUTs — bitslice_test.go proves this exhaustively over every
// valid input combination of every op.
//
// The netlist is lowered once into a flat level-ordered instruction stream
// with a CSR fanout adjacency, and Eval drains per-level dirty worklists
// seeded by changed nets, with whole-plane word compares as the change
// detector.
type BatchBackend struct {
	nl       *netlist.Netlist
	laneMask uint64

	pl, ph, pt []uint64 // per-net planes: can-be-0, can-be-1, taint

	tmpL, tmpH, tmpT []uint64 // scratch for DFF next-state planes
	rstOne           []bool   // per-DFF reset value is One

	// The instruction stream, index = position in level order.
	op     []uint8 // logic.Op
	in0    []int32
	in1    []int32
	in2    []int32
	out    []int32
	ilevel []int32

	fanIdx []int32 // CSR: net -> consuming instruction positions
	fan    []int32

	// Dirty-worklist state: queuedEp stamps an instruction enqueued in the
	// Eval numbered epoch.
	epoch    uint64
	queuedEp []uint64
	buckets  [][]int32
	pending  []netlist.NetID // nets changed since the last Eval
	needFull bool
}

// NewBatchBackend constructs a batch evaluator with the given lane count
// (1..BatchLanes). All lanes start at untainted X (InitX applied).
func NewBatchBackend(nl *netlist.Netlist, lanes int) (*BatchBackend, error) {
	if lanes < 1 || lanes > BatchLanes {
		return nil, fmt.Errorf("sim: batch lanes %d out of range [1,%d]", lanes, BatchLanes)
	}
	lv, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	ng, nn := len(nl.Gates), nl.NumNets()
	c := &BatchBackend{
		nl:       nl,
		laneMask: ^uint64(0) >> (BatchLanes - lanes),
		pl:       make([]uint64, nn),
		ph:       make([]uint64, nn),
		pt:       make([]uint64, nn),
		tmpL:     make([]uint64, len(nl.DFFs)),
		tmpH:     make([]uint64, len(nl.DFFs)),
		tmpT:     make([]uint64, len(nl.DFFs)),
		rstOne:   make([]bool, len(nl.DFFs)),
		op:       make([]uint8, ng),
		in0:      make([]int32, ng),
		in1:      make([]int32, ng),
		in2:      make([]int32, ng),
		out:      make([]int32, ng),
		ilevel:   make([]int32, ng),
		queuedEp: make([]uint64, ng),
		buckets:  make([][]int32, lv.NumLevels()),
	}
	for i, d := range nl.DFFs {
		c.rstOne[i] = d.RstVal == logic.One
	}
	pos := make([]int32, ng) // gate index -> instruction position
	for p, gi := range lv.Order {
		g := &nl.Gates[gi]
		pos[gi] = int32(p)
		c.op[p] = uint8(g.Op)
		c.out[p] = int32(g.Out)
		c.ilevel[p] = lv.GateLevel[gi]
		switch g.Op.Arity() {
		case 1:
			c.in0[p] = int32(g.In[0])
		case 2:
			c.in0[p] = int32(g.In[0])
			c.in1[p] = int32(g.In[1])
		case 3:
			c.in0[p] = int32(g.In[0]) // select
			c.in1[p] = int32(g.In[1])
			c.in2[p] = int32(g.In[2])
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
	}
	c.InitX()
	return c, nil
}

// setPlanes writes a net's planes and records the change for the next
// incremental Eval.
func (c *BatchBackend) setPlanes(id netlist.NetID, l, h, t uint64) {
	if c.pl[id] == l && c.ph[id] == h && c.pt[id] == t {
		return
	}
	c.pl[id], c.ph[id], c.pt[id] = l, h, t
	if !c.needFull {
		c.pending = append(c.pending, id)
	}
}

// InitX resets every lane of every net to untainted X (constants excepted).
// The next Eval runs a full sweep.
func (c *BatchBackend) InitX() {
	for i := range c.pl {
		c.pl[i], c.ph[i], c.pt[i] = ^uint64(0), ^uint64(0), 0
	}
	c0, c1 := c.nl.Const0(), c.nl.Const1()
	c.pl[c0], c.ph[c0] = ^uint64(0), 0
	c.pl[c1], c.ph[c1] = 0, ^uint64(0)
	c.pending = c.pending[:0]
	c.needFull = true
}

// Eval propagates values through the combinational logic of every lane.
func (c *BatchBackend) Eval() {
	if c.needFull {
		c.fullSweep()
		c.needFull = false
		c.pending = c.pending[:0]
		return
	}
	c.epoch++
	ep := c.epoch
	for _, id := range c.pending {
		c.seed(id, ep)
	}
	c.pending = c.pending[:0]
	c.drain(ep)
}

// enqueue marks one instruction dirty, once per epoch.
func (c *BatchBackend) enqueue(p int32, ep uint64) {
	if c.queuedEp[p] != ep {
		c.queuedEp[p] = ep
		l := c.ilevel[p]
		c.buckets[l] = append(c.buckets[l], p)
	}
}

// seed marks every consumer of a changed net dirty.
func (c *BatchBackend) seed(id netlist.NetID, ep uint64) {
	for _, p := range c.fan[c.fanIdx[id]:c.fanIdx[id+1]] {
		c.enqueue(p, ep)
	}
}

// drain evaluates the dirty instructions level by level; consumers always
// sit at strictly higher levels, so each bucket is complete when reached.
// An instruction propagates only when its output planes actually change.
func (c *BatchBackend) drain(ep uint64) {
	for lvl := range c.buckets {
		b := c.buckets[lvl]
		for i := 0; i < len(b); i++ {
			p := b[i]
			o := c.out[p]
			l, h, t := c.evalGate(p)
			if l != c.pl[o] || h != c.ph[o] || t != c.pt[o] {
				c.pl[o], c.ph[o], c.pt[o] = l, h, t
				c.seed(netlist.NetID(o), ep)
			}
		}
		c.buckets[lvl] = b[:0]
	}
}

// fullSweep evaluates the whole stream in level order, used for the first
// Eval and after InitX.
func (c *BatchBackend) fullSweep() {
	for p := range c.op {
		o := c.out[p]
		c.pl[o], c.ph[o], c.pt[o] = c.evalGate(int32(p))
	}
}

// Plane formulas. Value rails follow Kleene strong logic on the (L,H)
// encoding; taint rails implement the GLIFT rule: an output lane is tainted
// iff, holding untainted inputs to their possible values, some assignment
// of the tainted inputs changes the output. For AND, a tainted input leaks
// unless the other input is a definite controlling 0 — "other can be 1"
// (bH) widened by the other side's own taint (bT, which lets it range over
// {0,1}). OR is the dual with controlling 1. XOR always propagates taint
// (no controlling value). For MUX, a tainted select leaks iff the two data
// inputs can differ, comparing taint-widened rails (a tainted data lane can
// be either value).
func bsAnd(aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	h = aH & bH
	l = aL | bL
	t = aT&(bT|bH) | bT&aH
	return
}

func bsOr(aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	h = aH | bH
	l = aL & bL
	t = aT&(bT|bL) | bT&aL
	return
}

func bsXor(aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	h = aH&bL | aL&bH
	l = aL&bL | aH&bH
	t = aT | bT
	return
}

func bsMux(sL, sH, sT, aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	l = sL&aL | sH&bL
	h = sL&aH | sH&bH
	a0, a1 := aL|aT, aH|aT // taint-widened rails of the sel=0 input
	b0, b1 := bL|bT, bH|bT
	t = sL&aT | sH&bT | sT&(a0&b1|a1&b0)
	return
}

func (c *BatchBackend) evalGate(p int32) (l, h, t uint64) {
	switch logic.Op(c.op[p]) {
	case logic.Const0:
		return ^uint64(0), 0, 0
	case logic.Const1:
		return 0, ^uint64(0), 0
	case logic.Buf:
		a := c.in0[p]
		return c.pl[a], c.ph[a], c.pt[a]
	case logic.Not:
		a := c.in0[p]
		return c.ph[a], c.pl[a], c.pt[a]
	case logic.And:
		a, b := c.in0[p], c.in1[p]
		return bsAnd(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
	case logic.Nand:
		a, b := c.in0[p], c.in1[p]
		l, h, t = bsAnd(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
		return h, l, t
	case logic.Or:
		a, b := c.in0[p], c.in1[p]
		return bsOr(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
	case logic.Nor:
		a, b := c.in0[p], c.in1[p]
		l, h, t = bsOr(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
		return h, l, t
	case logic.Xor:
		a, b := c.in0[p], c.in1[p]
		return bsXor(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
	case logic.Xnor:
		a, b := c.in0[p], c.in1[p]
		l, h, t = bsXor(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
		return h, l, t
	default: // logic.Mux
		s, a, b := c.in0[p], c.in1[p], c.in2[p]
		return bsMux(c.pl[s], c.ph[s], c.pt[s],
			c.pl[a], c.ph[a], c.pt[a],
			c.pl[b], c.ph[b], c.pt[b])
	}
}

// Clock commits flip-flop next states on every lane, implementing
// Circuit.Clock's q' = mux(rst, mux(en, q, d), rstval) per lane.
func (c *BatchBackend) Clock() {
	dffs := c.nl.DFFs
	for i := range dffs {
		d := &dffs[i]
		hL, hH, hT := bsMux(c.pl[d.En], c.ph[d.En], c.pt[d.En],
			c.pl[d.Q], c.ph[d.Q], c.pt[d.Q],
			c.pl[d.D], c.ph[d.D], c.pt[d.D])
		var rL, rH uint64
		if c.rstOne[i] {
			rH = ^uint64(0)
		} else {
			rL = ^uint64(0)
		}
		c.tmpL[i], c.tmpH[i], c.tmpT[i] = bsMux(c.pl[d.Rst], c.ph[d.Rst], c.pt[d.Rst],
			hL, hH, hT, rL, rH, 0)
	}
	for i := range dffs {
		c.setPlanes(dffs[i].Q, c.tmpL[i], c.tmpH[i], c.tmpT[i])
	}
}
