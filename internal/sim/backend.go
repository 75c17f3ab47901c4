package sim

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Backend is a gate-evaluation engine for one netlist instance. Circuit owns
// exactly one and drives it through the per-cycle protocol: Set primary
// inputs, Eval the combinational logic (possibly several times with forced
// nets), Clock the flip-flops, snapshot/restore DFF state.
//
// Every backend must produce bit-identical net values for identical stimulus
// — the analysis engine's reports are byte-compared across backends by the
// differential suite — and identical Clock toggle counts, which feed the
// energy model. The unexported vals method closes the interface to this
// package: the wrapper reads the dense value array directly for its
// word-level accessors.
type Backend interface {
	// InitX resets every net — including all flip-flop outputs — to
	// untainted X, except the constant nets (Algorithm 1, line 2).
	InitX()
	// Get returns the packed signal on a net (valid after Eval).
	Get(id netlist.NetID) logic.Packed
	// Set drives a net, normally a primary input.
	Set(id netlist.NetID, p logic.Packed)
	// Eval propagates values through the combinational logic. forced maps
	// net IDs to values that override whatever their driver would produce;
	// nil for a normal evaluation.
	Eval(forced map[netlist.NetID]logic.Sig)
	// Clock commits flip-flop next states and returns the number of
	// flip-flop output value transitions (taint-only changes excluded).
	Clock() uint64
	// DFFState returns a copy of the flip-flop output values.
	DFFState() []logic.Packed
	// RestoreDFFState installs previously captured flip-flop outputs. The
	// host must Eval before reading any combinational net. A restore is a
	// bulk flip-flop update like Clock: forcings of the previous Eval stay
	// remembered, so the next Eval releases them exactly as it would after
	// a clock edge, and an incremental backend need only re-evaluate the
	// fanout of the flip-flops whose value differs.
	RestoreDFFState(st []logic.Packed)

	// vals exposes the backend's dense per-net value array for the
	// wrapper's bulk reads. The host must treat it as read-only.
	vals() []logic.Packed
}

// BackendKind selects a Backend implementation.
type BackendKind uint8

const (
	// BackendCompiled is the default: the netlist is lowered once into a
	// flat instruction stream and evaluated change-driven — only gates
	// whose inputs actually changed are re-evaluated.
	BackendCompiled BackendKind = iota
	// BackendInterp is the reference interpreter: a full sweep of the
	// levelized gate list through a per-gate switch on every Eval.
	BackendInterp
)

// backendRegistry is the single source of backend names: every CLI flag,
// gliftd option and differential sweep derives its name list from it, so a
// new backend registers exactly once. Order is the sweep order; the first
// entry is the default.
var backendRegistry = []struct {
	kind BackendKind
	name string
	ctor func(nl *netlist.Netlist) (Backend, error)
}{
	{BackendCompiled, "compiled", func(nl *netlist.Netlist) (Backend, error) { return newCompiled(nl) }},
	{BackendInterp, "interp", func(nl *netlist.Netlist) (Backend, error) { return newInterp(nl) }},
}

// String returns the parseable name of the backend kind.
func (k BackendKind) String() string {
	for _, e := range backendRegistry {
		if e.kind == k {
			return e.name
		}
	}
	return fmt.Sprintf("backend(%d)", uint8(k))
}

// BackendNames lists the registered backend names in registry order — the
// names ParseBackend accepts.
func BackendNames() []string {
	names := make([]string, len(backendRegistry))
	for i, e := range backendRegistry {
		names[i] = e.name
	}
	return names
}

// ParseBackend resolves a backend name from the registry: empty selects the
// default (compiled); "interpreter" is accepted as an alias for "interp".
// Unknown names error with the full list of valid ones.
func ParseBackend(s string) (BackendKind, error) {
	if s == "" {
		return backendRegistry[0].kind, nil
	}
	if s == "interpreter" {
		s = "interp"
	}
	for _, e := range backendRegistry {
		if e.name == s {
			return e.kind, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown backend %q (want one of: %s)", s, strings.Join(BackendNames(), ", "))
}

// Backends lists every backend kind in registry order, for differential
// sweeps.
func Backends() []BackendKind {
	kinds := make([]BackendKind, len(backendRegistry))
	for i, e := range backendRegistry {
		kinds[i] = e.kind
	}
	return kinds
}

// newBackend constructs the selected backend implementation.
func newBackend(nl *netlist.Netlist, kind BackendKind) (Backend, error) {
	for _, e := range backendRegistry {
		if e.kind == kind {
			return e.ctor(nl)
		}
	}
	return nil, fmt.Errorf("sim: unknown backend kind %d", kind)
}
