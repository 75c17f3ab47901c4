package sim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// LaneMask returns the mask with every configured lane set.
func (c *BatchBackend) LaneMask() uint64 { return c.laneMask }

// GetLane reads one lane of a net (valid after Eval).
func (c *BatchBackend) GetLane(lane int, id netlist.NetID) logic.Sig {
	l := c.pl[id] >> lane & 1
	h := c.ph[id] >> lane & 1
	t := c.pt[id] >> lane & 1
	var v logic.V
	switch {
	case l&h != 0:
		v = logic.X
	case h != 0:
		v = logic.One
	default:
		v = logic.Zero
	}
	return logic.Sig{V: v, T: t != 0}
}

// SetLane drives one lane of a net, leaving the other lanes untouched.
func (c *BatchBackend) SetLane(lane int, id netlist.NetID, s logic.Sig) {
	bit := uint64(1) << lane
	l, h, t := c.pl[id]&^bit, c.ph[id]&^bit, c.pt[id]&^bit
	switch s.V {
	case logic.Zero:
		l |= bit
	case logic.One:
		h |= bit
	default:
		l |= bit
		h |= bit
	}
	if s.T {
		t |= bit
	}
	c.setPlanes(id, l, h, t)
}

// GetLaneWord assembles a word from one lane of the given nets, LSB first.
func (c *BatchBackend) GetLaneWord(lane int, nets []netlist.NetID) Word {
	var w Word
	for i, id := range nets {
		s := c.GetLane(lane, id)
		bit := uint16(1) << i
		switch s.V {
		case logic.One:
			w.Val |= bit
		case logic.X:
			w.XM |= bit
		}
		if s.T {
			w.TT |= bit
		}
	}
	return w
}

// SetLaneWord drives one lane of the given nets from a word, LSB first.
func (c *BatchBackend) SetLaneWord(lane int, nets []netlist.NetID, w Word) {
	for i, id := range nets {
		c.SetLane(lane, id, w.Sig(i))
	}
}
