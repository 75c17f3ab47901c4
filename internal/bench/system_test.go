package bench

import (
	"context"
	"errors"
	"testing"

	"repro/internal/transform"
)

// TestBuildUnmodifiedShared: the unmodified system is assembled once per
// benchmark; later builds reuse the image instead of reassembling.
func TestBuildUnmodifiedShared(t *testing.T) {
	b := ByName("mult")
	bt1, err := BuildUnmodified(b)
	if err != nil {
		t.Fatal(err)
	}
	bt2, err := BuildUnmodified(b)
	if err != nil {
		t.Fatal(err)
	}
	if bt1 != bt2 || bt1.Img != bt2.Img {
		t.Error("BuildUnmodified should return the shared assembled system")
	}
}

// TestScaffoldCacheIsolation: variant builds draw parsed scaffolds from a
// cache but must never perturb it — a masked build followed by an unmasked
// build of the same scaffold yields the original image.
func TestScaffoldCacheIsolation(t *testing.T) {
	b := ByName("inSort")
	unmod, err := BuildUnmodified(b)
	if err != nil {
		t.Fatal(err)
	}
	off, err := taskStmtOffset(unmod.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	flaggedLines := map[int]bool{}
	for _, si := range transform.MaskableStoreIdxs(unmod.Stmts) {
		if si >= off {
			flaggedLines[unmod.Stmts[si].Line] = true
		}
	}
	if len(flaggedLines) == 0 {
		t.Fatal("benchmark has no maskable task stores")
	}
	masked, err := buildVariant(b, AlwaysOn, false, transform.WdtPlan{}, flaggedLines)
	if err != nil {
		t.Fatal(err)
	}
	if masked.Masked == 0 {
		t.Fatal("masked variant inserted nothing")
	}
	// Same scaffold, no flags: must reproduce the unmodified image exactly
	// even though the masked build relabelled its statement copies.
	plain, err := buildVariant(b, Unmodified, false, transform.WdtPlan{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Img.Entry != unmod.Img.Entry || len(plain.Img.Segments) != len(unmod.Img.Segments) {
		t.Fatalf("cache perturbed: entry/segments differ (%+v vs %+v)", plain.Img, unmod.Img)
	}
	for i, seg := range unmod.Img.Segments {
		got := plain.Img.Segments[i]
		if got.Addr != seg.Addr || len(got.Words) != len(seg.Words) {
			t.Fatalf("cache perturbed: segment %d shape differs", i)
		}
		for k, w := range seg.Words {
			if got.Words[k] != w {
				t.Fatalf("cache perturbed: segment %d word %d = %#x, want %#x", i, k, got.Words[k], w)
			}
		}
	}
}

// TestBuildProtectedCancelled: the analysis rounds of the analysis-guided
// build run under the caller's context, so a cancelled context ends them
// with an error instead of a variant derived from a truncated analysis.
func TestBuildProtectedCancelled(t *testing.T) {
	ev := allEvals(t)[0]
	if !ev.Bench.ExpectC1C2 {
		t.Fatalf("%s: want a benchmark whose first round masks stores", ev.Bench.Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := BuildProtected(ctx, ev.Bench, WithAnalysis, ev.UnmodReport, ev.Unmod, ev.UnmodMeasure.TaskCycles)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: cancelled build returned %v, want context.Canceled", ev.Bench.Name, err)
	}
}
