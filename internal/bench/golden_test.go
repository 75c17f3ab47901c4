package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// tableRow is one benchmark's Table 2 and Table 3 results: every cell the
// evaluation derives, and no wall time.
type tableRow struct {
	Name                           string
	UnmodC1, UnmodC2, ModC1, ModC2 bool
	Without, With                  float64
	MaskedWith, MaskedAll          int
	Watchdog                       bool
	CPI                            float64
}

// TestTablesGolden pins Tables 2 and 3 exactly against a committed golden
// file: the C1/C2 cells before and after modification, both overheads, the
// masked-store counts, the watchdog decision and the CPI of every
// benchmark. TestTable2 and TestTable3Shape check the paper's claims; this
// test catches any drift in the values EXPERIMENTS.md reports.
func TestTablesGolden(t *testing.T) {
	t2, t3 := Tables(allEvals(t))
	rows := make([]tableRow, len(t2))
	for i := range t2 {
		a, b := t2[i], t3[i]
		rows[i] = tableRow{
			Name:    a.Name,
			UnmodC1: a.UnmodC1, UnmodC2: a.UnmodC2, ModC1: a.ModC1, ModC2: a.ModC2,
			Without: b.Without, With: b.With,
			MaskedWith: b.MaskedWith, MaskedAll: b.MaskedAll,
			Watchdog: b.Watchdog,
			CPI:      b.CPI,
		}
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "tables.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Tables 2 and 3 drifted from %s (run with -update to regenerate):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
