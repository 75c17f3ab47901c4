package bench

import (
	"context"
	"testing"

	"repro/internal/glift"
)

// TestAlwaysOnVerifiesSecure checks the premise behind the paper's
// "without analysis" baseline: masking every store and bounding every
// tainted task achieves security even with no application knowledge — it
// is just 2-3x more expensive. We verify the always-on builds with the
// analysis itself.
func TestAlwaysOnVerifiesSecure(t *testing.T) {
	for _, name := range []string{"binSearch", "tHold", "mult", "tea8"} {
		b := ByName(name)
		unmod, err := BuildUnmodified(b)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Measure(unmod, 0xACE1, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		always, _, err := BuildProtected(context.Background(), b, AlwaysOn, nil, unmod, m.TaskCycles)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := glift.Analyze(always.Img, always.Policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.ByKind(glift.C1TaintedState)) > 0 || len(rep.ByKind(glift.C2MemoryEscape)) > 0 {
			t.Errorf("%s: always-on variant violates C1/C2: %v", name, rep.Violations)
		}
	}
}
