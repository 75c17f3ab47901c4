package mcu

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// BatchSystem drives up to 64 independent machine contexts over one
// bitsliced backend: every lane has its own behavioural memories and port
// inputs, while the gate-level state advances in lockstep through shared
// word-parallel Evals. The per-cycle protocol is System's, vectorized:
// EvalCycle runs the same three passes with per-lane memory feedback
// (fetch, load dispatch), CommitLanes applies per-lane stores and one
// shared clock edge.
//
// The behavioural memory semantics are shared with System via memIO, so a
// lane is cycle-exact against a scalar System fed the same stimulus — the
// property the batched fault campaign rests on.
type BatchSystem struct {
	D *Design
	B *sim.BatchBackend

	Cycle uint64

	lanes        int
	rst          logic.Sig // external reset, driven on every lane alike
	portIn       [][NumPorts]sim.Word
	mem          []memIO
	portsApplied bool
	cis          []CycleInfo
}

// NewBatchSystem builds a batched machine over the design with the given
// lane count. Every lane starts powered off (all X) with its own empty
// ROM/RAM and untainted-X port inputs.
func NewBatchSystem(d *Design, lanes int) (*BatchSystem, error) {
	be, err := sim.NewBatchBackend(d.NL, lanes)
	if err != nil {
		return nil, err
	}
	b := &BatchSystem{
		D:      d,
		B:      be,
		lanes:  lanes,
		rst:    logic.Zero0,
		portIn: make([][NumPorts]sim.Word, lanes),
		mem:    make([]memIO, lanes),
		cis:    make([]CycleInfo, lanes),
	}
	for lane := 0; lane < lanes; lane++ {
		for i := 0; i < NumPorts; i++ {
			b.portIn[lane][i] = sim.Word{XM: 0xffff}
		}
		b.mem[lane] = b.laneMemIO(lane)
	}
	return b, nil
}

// laneMemIO builds one lane's behavioural memories over its lane of the
// backend.
func (b *BatchSystem) laneMemIO(lane int) memIO {
	m := b.D.Map
	return memIO{
		d:   b.D,
		rom: sim.NewTaintMem(m.ROMStart, int(m.ROMEnd)-int(m.ROMStart)),
		ram: sim.NewTaintMem(m.RAMStart, int(m.RAMEnd)-int(m.RAMStart)),
		get: func(nets []netlist.NetID) sim.Word { return b.B.GetLaneWord(lane, nets) },
		// Batched lanes keep no unusual-access log: fault campaigns report
		// only cycle counts and errors.
		logf: func(string, ...interface{}) {},
	}
}

// LaneROM returns one lane's program memory, for per-lane image placement
// and fault corruption.
func (b *BatchSystem) LaneROM(lane int) *sim.TaintMem { return b.mem[lane].rom }

// SetLanePortIn presents a value on one lane's input port i. The value
// persists across cycles (and power-on) until changed.
func (b *BatchSystem) SetLanePortIn(lane, i int, w sim.Word) {
	b.portIn[lane][i] = w
	b.portsApplied = false
}

// applyPorts drives every lane's port-input nets. Port inputs are
// sourceless, so the values persist across Evals; re-application is only
// needed after InitX or a SetLanePortIn.
func (b *BatchSystem) applyPorts() {
	if b.portsApplied {
		return
	}
	for lane := 0; lane < b.lanes; lane++ {
		for i := 0; i < NumPorts; i++ {
			b.B.SetLaneWord(lane, b.D.PortIn[i], b.portIn[lane][i])
		}
	}
	b.portsApplied = true
}

// EvalCycle evaluates one full cycle on every lane in active (multi-pass,
// feeding each lane's behavioural memories) without committing flip-flops
// or stores. The returned slice is indexed by lane and reused across calls;
// entries for inactive lanes are stale.
func (b *BatchSystem) EvalCycle(active uint64) []CycleInfo {
	forActive := func(f func(lane int)) {
		for m := active & b.B.LaneMask(); m != 0; m &= m - 1 {
			f(bits.TrailingZeros64(m))
		}
	}
	forActive(func(lane int) {
		b.B.SetLane(lane, b.D.Rst, b.rst)
	})
	b.applyPorts()

	// Pass 1: registers -> program-memory address.
	b.B.Eval()
	forActive(func(lane int) {
		ci := &b.cis[lane]
		*ci = CycleInfo{}
		paw := b.B.GetLaneWord(lane, b.D.PmemAddr)
		ci.PmemAddr, ci.PmemOK = paw.Val, paw.Concrete()
		fetch := b.mem[lane].fetch(paw)
		ci.Fetch = fetch
		b.B.SetLaneWord(lane, b.D.PmemRdata, fetch)
	})

	// Pass 2: extension word -> data-memory address.
	b.B.Eval()
	forActive(func(lane int) {
		ci := &b.cis[lane]
		ci.Re = b.B.GetLane(lane, b.D.DmemRe)
		addr := b.B.GetLaneWord(lane, b.D.DmemAddr)
		ci.Addr = addr
		rdata := sim.Word{XM: 0xffff}
		if ci.Re.V != logic.Zero {
			rdata = b.mem[lane].loadDispatch(addr, ci.Re)
		}
		b.B.SetLaneWord(lane, b.D.DmemRdata, rdata)
	})

	// Pass 3: final settle.
	b.B.Eval()
	forActive(func(lane int) {
		ci := &b.cis[lane]
		ci.We = b.B.GetLane(lane, b.D.DmemWe)
		ci.BW = b.B.GetLane(lane, b.D.DmemBW)
		ci.WData = b.B.GetLaneWord(lane, b.D.DmemWdata)
		ci.Addr = b.B.GetLaneWord(lane, b.D.DmemAddr)
		ci.PCNext = b.B.GetLaneWord(lane, b.D.PCNext)
		ci.PC = b.B.GetLaneWord(lane, b.D.PC)
		ci.BranchTkn = b.B.GetLane(lane, b.D.BranchTaken)
		ci.POR = b.B.GetLane(lane, b.D.POR)
		ci.IrqTkn = b.B.GetLane(lane, b.D.IrqTaken)
		st := b.B.GetLaneWord(lane, b.D.State)
		ci.State, ci.StateOK = uint64(st.Val), st.Concrete()
	})
	return b.cis
}

// CommitLanes applies the evaluated cycle on every lane in active: per-lane
// data-memory stores, then one shared clock edge and the cycle counter.
func (b *BatchSystem) CommitLanes(active uint64, cis []CycleInfo) {
	for m := active & b.B.LaneMask(); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if cis[lane].We.V != logic.Zero {
			b.mem[lane].commitStore(&cis[lane])
		}
	}
	b.B.Clock()
	b.Cycle++
}

// PowerOn initializes every lane to untainted X, asserts the external reset
// on every lane for one cycle and releases it — System.PowerOn across the
// whole batch.
func (b *BatchSystem) PowerOn() {
	b.B.InitX()
	b.portsApplied = false
	all := b.B.LaneMask()
	b.rst = logic.One0
	cis := b.EvalCycle(all)
	b.CommitLanes(all, cis)
	b.rst = logic.Zero0
}
