// Package target is the registry of analyzable processor targets. A Target
// bundles everything the toolchain needs to point the GLIFT engine at one
// MCU: gate-level design construction (with shared-design memoization, since
// synthesizing a netlist is expensive and the design is immutable), an
// assembler front end for its ISA, and capability flags for the parts of
// the toolchain that are still ISA-specific (binary repair).
//
// The registry mirrors sim's backend registry: it is the single source of
// target names, every -target CLI flag and the gliftd job schema derive
// their valid values from it, and the first entry (msp430) is the default
// so existing callers and serialized jobs keep their meaning. Unlike
// Workers/Backend — wall-time knobs excluded from content-addressed job
// keys — the target changes the analyzed system itself, so it IS part of
// the key (see internal/service).
//
// Per-cycle mechanics need no target dispatch: design conventions (memory
// geometry, trap encoding, jump-word detection, register naming) travel on
// mcu.Design itself, so the engine, simulators and checkers stay
// target-agnostic. A new target registers here and implements those
// conventions in its Build().
package target

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/mcu"
	"repro/internal/rv32"
)

// Target is one registered processor target.
type Target struct {
	// Name is the registry key ("msp430", "rv32").
	Name string
	// Desc is a one-line description for CLI help.
	Desc string
	// Design returns the memoized shared design — safe for concurrent use
	// because designs are immutable after Build.
	Design func() *mcu.Design
	// NewDesign builds a fresh, unshared design (for callers that mutate
	// or instrument the netlist, e.g. fault injection).
	NewDesign func() *mcu.Design
	// Assemble assembles target assembly source into an image.
	Assemble func(src string) (*asm.Image, error)
	// SupportsRepair reports whether the binary repair pipeline
	// (internal/transform, internal/repair) understands this ISA.
	SupportsRepair bool
}

// registry is the single source of target names. Order is display order;
// the first entry is the default.
var registry = []*Target{
	{
		Name:           "msp430",
		Desc:           "16-bit MSP430 core, full bench suite, binary repair",
		Design:         mcu.Shared,
		NewDesign:      mcu.Build,
		Assemble:       asm.AssembleSource,
		SupportsRepair: true,
	},
	{
		Name:           "rv32",
		Desc:           "RV32I-subset core, smoke benchmarks, analysis only",
		Design:         rv32.Shared,
		NewDesign:      rv32.Build,
		Assemble:       rv32.AssembleSource,
		SupportsRepair: false,
	},
}

// Default is the default target (msp430), preserving the meaning of every
// pre-registry caller, CLI invocation and serialized job.
func Default() *Target { return registry[0] }

// Targets lists every registered target in registry order.
func Targets() []*Target {
	out := make([]*Target, len(registry))
	copy(out, registry)
	return out
}

// Names lists the registered target names in registry order — the valid
// values for every -target flag and the gliftd job "target" field.
func Names() []string {
	names := make([]string, len(registry))
	for i, t := range registry {
		names[i] = t.Name
	}
	return names
}

// Parse resolves a target name: empty selects the default (msp430);
// unknown names error with the full list of valid ones.
func Parse(s string) (*Target, error) {
	if s == "" {
		return Default(), nil
	}
	for _, t := range registry {
		if t.Name == s {
			return t, nil
		}
	}
	return nil, fmt.Errorf("target: unknown target %q (want one of: %s)", s, strings.Join(Names(), ", "))
}

// FlagHelp is the shared -target flag usage string.
func FlagHelp() string {
	return fmt.Sprintf("processor target (%s)", strings.Join(Names(), ", "))
}
