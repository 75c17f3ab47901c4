package motivate

import (
	"testing"

	"repro/internal/glift"
)

func TestScenarioOutcomes(t *testing.T) {
	results, err := RunAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(results))
	}
	for _, r := range results {
		if r.Scenario.Unknown {
			if r.Star == nil || !r.Star.PCBecameUnknown || r.Star.GateTaintFraction < 0.5 {
				t.Errorf("figure %d: unknown-application view should degrade, got %+v", r.Scenario.Figure, r.Star)
			}
			continue
		}
		if r.Secure != r.Scenario.Secure {
			t.Errorf("figure %d (%s): secure=%v, want %v; violations: %v",
				r.Scenario.Figure, r.Scenario.Name, r.Secure, r.Scenario.Secure, r.Report.Violations)
		}
	}
}

func TestFigure4RootCause(t *testing.T) {
	results, err := RunAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	fig4 := results[2]
	if got := fig4.Report.ViolatingStorePCs(); len(got) == 0 {
		t.Fatal("figure 4 should identify the violating store")
	}
}

// TestMicroOutcomes pins the Figure 8 and Figure 9 micro-benchmarks: the
// unprotected task violates condition 1 and the watchdog-bounded one
// verifies; the unmasked store escapes its partition and the masked one
// does not.
func TestMicroOutcomes(t *testing.T) {
	fig8, fig9 := Figure8(), Figure9()
	for _, c := range []struct {
		s     *Scenario
		kind  glift.Kind
		raise bool // whether the run raises a violation of kind
	}{
		{fig8[0], glift.C1TaintedState, true},
		{fig8[1], glift.C1TaintedState, false},
		{fig9[0], glift.C2MemoryEscape, true},
		{fig9[1], glift.C2MemoryEscape, false},
	} {
		r, err := Run(c.s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Secure != c.s.Secure {
			t.Errorf("figure %d (%s): secure=%v, want %v; violations: %v",
				c.s.Figure, c.s.Name, r.Secure, c.s.Secure, r.Report.Violations)
		}
		if got := len(r.Report.ByKind(c.kind)) > 0; got != c.raise {
			t.Errorf("figure %d (%s): %s raised=%v, want %v; violations: %v",
				c.s.Figure, c.s.Name, c.kind, got, c.raise, r.Report.Violations)
		}
	}
}
