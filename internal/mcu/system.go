package mcu

import (
	"context"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// System binds the microcontroller netlist to behavioural program/data
// memories and memory-mapped peripherals, and drives it cycle by cycle.
// It supports both concrete execution (differential testing, performance
// measurement) and symbolic execution with GLIFT taint (the engine behind
// the paper's Algorithm 1 lives in internal/glift and calls EvalCycle /
// Commit / Snapshot / Restore).
type System struct {
	D *Design
	C *sim.Circuit

	ROM *sim.TaintMem // program memory incl. the reset vector
	RAM *sim.TaintMem // data memory

	Cycle uint64

	rst    logic.Sig
	portIn [NumPorts]sim.Word
	events []string       // unusual accesses (unmapped, fetch outside ROM, ...)
	vcd    *sim.VCDWriter // optional waveform dump, sampled at each commit
	mem    memIO          // behavioural memory model bound to C/ROM/RAM
}

// CycleInfo describes one evaluated (not yet committed) cycle.
type CycleInfo struct {
	State     uint64
	StateOK   bool
	PmemAddr  uint16
	PmemOK    bool
	Fetch     sim.Word // word returned by program memory
	Re, We    logic.Sig
	BW        logic.Sig
	Addr      sim.Word // data memory address
	WData     sim.Word
	PCNext    sim.Word
	PC        sim.Word
	BranchTkn logic.Sig
	POR       logic.Sig
	IrqTkn    logic.Sig
}

// NewSystem builds the design (or wraps a provided one) and its memories,
// simulating on the default evaluation backend.
func NewSystem(d *Design) (*System, error) {
	return NewSystemBackend(d, sim.BackendCompiled)
}

// NewSystemBackend is NewSystem on an explicit gate-evaluation backend.
func NewSystemBackend(d *Design, kind sim.BackendKind) (*System, error) {
	c, err := sim.NewCircuitBackend(d.NL, kind)
	if err != nil {
		return nil, err
	}
	s := &System{
		D:   d,
		C:   c,
		ROM: sim.NewTaintMem(d.Map.ROMStart, int(d.Map.ROMEnd)-int(d.Map.ROMStart)),
		RAM: sim.NewTaintMem(d.Map.RAMStart, int(d.Map.RAMEnd)-int(d.Map.RAMStart)),
		rst: logic.Zero0,
	}
	s.mem = memIO{d: d, rom: s.ROM, ram: s.RAM, get: s.getWord, logf: s.logf}
	// Port inputs default to untainted X.
	for i := 0; i < NumPorts; i++ {
		s.SetPortIn(i, sim.Word{XM: 0xffff})
	}
	return s, nil
}

func (s *System) logf(format string, args ...interface{}) {
	s.events = append(s.events, fmt.Sprintf("cycle %d: ", s.Cycle)+fmt.Sprintf(format, args...))
}

// LoadProgram writes machine words into program memory, untainted.
func (s *System) LoadProgram(addr uint16, words []uint16) {
	for i, w := range words {
		s.ROM.StoreWord(addr+uint16(2*i), sim.ConcreteWord(w))
	}
}

// SetResetVector points the reset vector at entry.
func (s *System) SetResetVector(entry uint16) {
	s.ROM.StoreWord(s.D.Map.ResetVec, sim.ConcreteWord(entry))
}

// TaintCode marks the program-memory range [lo, hi) as tainted (a tainted
// code partition in the paper's terminology). Instruction words keep their
// concrete values but carry taint into decode, which is how a tainted task
// taints the PC on its first fetched instruction (Figure 8).
func (s *System) TaintCode(lo, hi uint16) { s.ROM.SetTaint(lo, hi) }

// SetPortIn presents a value on input port i (read at its MMIO address).
// The value persists across cycles (and power-on) until changed.
func (s *System) SetPortIn(i int, w sim.Word) {
	s.portIn[i] = w
	s.applyPortIn()
}

// LFSR is the deterministic port-input sampler of concrete runs: a 16-bit
// Fibonacci shift register with taps at bits 0, 2, 3 and 5. Seed it with
// an odd value; a zero register stays zero.
type LFSR uint16

// Next advances the register and returns its new value.
func (l *LFSR) Next() uint16 {
	v := uint16(*l)
	bit := (v>>0 ^ v>>2 ^ v>>3 ^ v>>5) & 1
	v = v>>1 | bit<<15
	*l = LFSR(v)
	return v
}

func (s *System) applyPortIn() {
	for i := 0; i < NumPorts; i++ {
		for bit := 0; bit < 16; bit++ {
			s.C.SetInput(s.D.PortIn[i][bit], s.portIn[i].Sig(bit))
		}
	}
}

// SetRst drives the external reset input on subsequent cycles.
func (s *System) SetRst(sig logic.Sig) { s.rst = sig }

// Events drains the unusual-access log.
func (s *System) Events() []string {
	e := s.events
	s.events = nil
	return e
}

func (s *System) getWord(w []netlist.NetID) sim.Word {
	var out sim.Word
	for i, id := range w {
		sg := s.C.Get(id)
		switch sg.V {
		case logic.One:
			out.Val |= 1 << uint(i)
		case logic.X:
			out.XM |= 1 << uint(i)
		}
		if sg.T {
			out.TT |= 1 << uint(i)
		}
	}
	return out
}

func (s *System) setWord(w []netlist.NetID, v sim.Word) {
	for i, id := range w {
		s.C.SetInput(id, v.Sig(i))
	}
}

// GetWord exposes a probe word's current signals (after EvalCycle).
func (s *System) GetWord(w []netlist.NetID) sim.Word { return s.getWord(w) }

// GetSig exposes one net's current signal (after EvalCycle).
func (s *System) GetSig(id netlist.NetID) logic.Sig { return s.C.Get(id) }

// readMMIO returns the word visible at a peripheral address, if any.
func (s *System) readMMIO(addr uint16) (sim.Word, bool) { return s.mem.readMMIO(addr) }

// loadDispatch resolves a data-memory read for a (possibly partially
// unknown, possibly tainted) address.
func (s *System) loadDispatch(addr sim.Word, re logic.Sig) sim.Word {
	return s.mem.loadDispatch(addr, re)
}

func (s *System) readAt(addr uint16) sim.Word { return s.mem.readAt(addr) }

// EvalCycle evaluates one full cycle (multi-pass, feeding the behavioural
// memories) without committing flip-flops or stores. forced overrides nets
// during every pass — the fork mechanism for unknown branch decisions.
func (s *System) EvalCycle(forced map[netlist.NetID]logic.Sig) *CycleInfo {
	ci := &CycleInfo{}
	s.C.SetInput(s.D.Rst, s.rst)
	s.applyPortIn()

	// Pass 1: registers -> program-memory address.
	s.C.Eval(forced)
	paw := s.getWord(s.D.PmemAddr)
	ci.PmemAddr, ci.PmemOK = paw.Val, paw.Concrete()
	fetch := s.mem.fetch(paw)
	ci.Fetch = fetch
	s.setWord(s.D.PmemRdata, fetch)

	// Pass 2: extension word -> data-memory address.
	s.C.Eval(forced)
	ci.Re = s.C.Get(s.D.DmemRe)
	addr := s.getWord(s.D.DmemAddr)
	ci.Addr = addr
	rdata := sim.Word{XM: 0xffff}
	if ci.Re.V != logic.Zero {
		rdata = s.loadDispatch(addr, ci.Re)
	}
	s.setWord(s.D.DmemRdata, rdata)

	// Pass 3: final settle.
	s.C.Eval(forced)
	ci.We = s.C.Get(s.D.DmemWe)
	ci.BW = s.C.Get(s.D.DmemBW)
	ci.WData = s.getWord(s.D.DmemWdata)
	ci.Addr = s.getWord(s.D.DmemAddr)
	ci.PCNext = s.getWord(s.D.PCNext)
	ci.PC = s.getWord(s.D.PC)
	ci.BranchTkn = s.C.Get(s.D.BranchTaken)
	ci.POR = s.C.Get(s.D.POR)
	ci.IrqTkn = s.C.Get(s.D.IrqTaken)
	st, stOK, _ := s.C.GetWord(s.D.State)
	ci.State, ci.StateOK = st, stOK
	return ci
}

// Commit applies the evaluated cycle: the data-memory store (with
// conservative unknown-address semantics) and the clock edge.
func (s *System) Commit(ci *CycleInfo) {
	if s.vcd != nil {
		s.vcd.Sample()
	}
	if ci.We.V != logic.Zero {
		s.commitStore(ci)
	}
	s.C.Clock()
	s.Cycle++
}

// AttachVCD streams the named nets (plus their taint channels) as a Value
// Change Dump, sampled once per committed cycle. Call Flush on the returned
// writer when done.
func (s *System) AttachVCD(w io.Writer, names []string) (*sim.VCDWriter, error) {
	v, err := sim.NewVCDWriter(w, s.C, names)
	if err != nil {
		return nil, err
	}
	s.vcd = v
	return v, nil
}

func (s *System) commitStore(ci *CycleInfo) { s.mem.commitStore(ci) }

// Step evaluates and commits one cycle; the caller must ensure the PC next
// value is concrete (concrete-input runs always are).
func (s *System) Step() *CycleInfo {
	ci := s.EvalCycle(nil)
	s.Commit(ci)
	return ci
}

// PowerOn initializes every flip-flop to untainted X, asserts the external
// reset for one cycle and releases it. Two further cycles of pipeline
// startup (the StReset vector fetch) happen during normal stepping.
func (s *System) PowerOn() {
	s.C.InitX()
	s.SetRst(logic.One0)
	s.Step()
	s.SetRst(logic.Zero0)
}

// RunToCompletion steps until the PC parks on a self-jump ("jmp $"),
// returning the cycle count consumed. An unknown PC, maxCycles elapsing
// first, or ctx ending (polled every 1024 cycles) is an error. It is the
// harness for concrete runs.
func (s *System) RunToCompletion(ctx context.Context, maxCycles uint64) (uint64, error) {
	start := s.Cycle
	var lastPC uint64 = 1 << 20
	samePC := 0
	for s.Cycle-start < maxCycles {
		if s.Cycle&1023 == 0 && ctx.Err() != nil {
			return s.Cycle - start, fmt.Errorf("concrete run cancelled at cycle %d: %w", s.Cycle, ctx.Err())
		}
		ci := s.EvalCycle(nil)
		if !ci.PmemOK {
			return s.Cycle - start, fmt.Errorf("pc became unknown at cycle %d", s.Cycle)
		}
		if ci.State == StFetch && ci.StateOK {
			if uint64(ci.PmemAddr) == lastPC {
				samePC++
				if samePC >= 2 {
					return s.Cycle - start, nil // parked on jmp $
				}
			} else {
				samePC = 0
			}
			lastPC = uint64(ci.PmemAddr)
		}
		s.Commit(ci)
	}
	return s.Cycle - start, fmt.Errorf("did not terminate in %d cycles", maxCycles)
}

// Snapshot captures the machine state (flip-flops + data memory).
//
// A snapshot is immutable once the analysis engine holds it: one snapshot
// may be shared by the conservative state table, the work queue and
// speculation traces at the same time, so MergeFrom runs only on a fresh
// Clone, never on a snapshot someone else may hold.
type Snapshot struct {
	DFF []logic.Packed
	RAM *sim.TaintMem
}

// Snapshot captures flip-flop and RAM state.
func (s *System) Snapshot() *Snapshot {
	return &Snapshot{DFF: s.C.DFFState(), RAM: s.RAM.Snapshot()}
}

// SnapshotBytes approximates the heap footprint of one Snapshot — the unit
// of the analysis engine's memory accounting (it multiplies this by the
// number of retained snapshots rather than tracking allocations).
func (s *System) SnapshotBytes() int64 {
	return int64(len(s.D.NL.DFFs)) + s.RAM.FootprintBytes() + 64
}

// Restore reinstates a snapshot.
func (s *System) Restore(sn *Snapshot) {
	s.C.RestoreDFFState(sn.DFF)
	s.RAM.Restore(sn.RAM)
}

// SubstateOf reports whether sn is covered by the conservative snapshot c.
func (sn *Snapshot) SubstateOf(c *Snapshot) bool {
	for i := range sn.DFF {
		if !logic.Substate(logic.Unpack(sn.DFF[i]), logic.Unpack(c.DFF[i])) {
			return false
		}
	}
	return sn.RAM.Substate(c.RAM)
}

// MergeFrom widens sn to also cover o. sn must be a fresh Clone that no one
// else holds (see Snapshot).
func (sn *Snapshot) MergeFrom(o *Snapshot) {
	for i := range sn.DFF {
		sn.DFF[i] = logic.Pack(logic.Merge(logic.Unpack(sn.DFF[i]), logic.Unpack(o.DFF[i])))
	}
	sn.RAM.MergeFrom(o.RAM)
}

// Clone deep-copies a snapshot.
func (sn *Snapshot) Clone() *Snapshot {
	return &Snapshot{DFF: append([]logic.Packed(nil), sn.DFF...), RAM: sn.RAM.Snapshot()}
}

// RegWord reads an architectural register's current value (after an Eval);
// valid only for registers that exist as flip-flops plus PC and SR.
func (s *System) RegWord(r isa.Reg) sim.Word {
	switch r {
	case isa.PC:
		return s.getWord(s.D.PC)
	case isa.SR:
		return s.getWord(s.D.SR)
	case isa.CG:
		return sim.ConcreteWord(0)
	default:
		return s.getWord(s.D.Regs[r])
	}
}
