package glift

import (
	"testing"

	"repro/internal/asm"
)

// TestProgressHook: an installed Progress hook observes intermediate
// snapshots on long runs and always a final Done snapshot whose stats match
// the returned report.
func TestProgressHook(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov #0x0280, sp
        mov #9000, r10
lp:     dec r10
        jnz lp
end:    jmp end
`)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	opt := &Options{
		// Unroll the loop precisely so the run is long enough to cross the
		// progress granularity at least once.
		WidenAfter: 1 << 20,
		Progress:   func(p Progress) { snaps = append(snaps, p) },
	}
	rep, err := Analyze(img, &Policy{Name: "progress"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress callbacks")
	}
	last := snaps[len(snaps)-1]
	if !last.Done {
		t.Error("final snapshot should have Done set")
	}
	if last.Stats.Cycles != rep.Stats.Cycles {
		t.Errorf("final snapshot cycles %d != report cycles %d", last.Stats.Cycles, rep.Stats.Cycles)
	}
	if rep.Stats.Cycles <= progressEvery {
		t.Fatalf("run too short (%d cycles) to exercise intermediate progress", rep.Stats.Cycles)
	}
	if len(snaps) < 2 {
		t.Error("expected at least one intermediate snapshot on a long run")
	}
	for i, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Errorf("snapshot %d marked Done before the run finished", i)
		}
	}
	// WallNanos is refreshed on every snapshot, not only when RunContext
	// returns: each one carries a positive, non-decreasing elapsed time.
	var prev int64
	for i, p := range snaps {
		if p.Stats.WallNanos <= 0 {
			t.Errorf("snapshot %d: WallNanos %d not populated", i, p.Stats.WallNanos)
		}
		if p.Stats.WallNanos < prev {
			t.Errorf("snapshot %d: WallNanos went backwards (%d < %d)", i, p.Stats.WallNanos, prev)
		}
		prev = p.Stats.WallNanos
	}
}

// TestProgressForkHeavyCadence: a fork commits one cycle per successor on
// top of the cycle count its path reached, so a cadence test on absolute
// cycle positions could be stepped over indefinitely. Counting cycles since
// the last emission must keep intermediate snapshots flowing on fork-heavy
// runs.
func TestProgressForkHeavyCadence(t *testing.T) {
	// The tainted flag makes every jnz fork into two briefly-divergent
	// successors, so a large share of all cycle commits are fork-successor
	// commits rather than straight-line ones. Shrinking the cadence keeps
	// the (exponential) benchmark small while still crossing the granularity
	// dozens of times.
	defer func(prev uint64) { progressEvery = prev }(progressEvery)
	progressEvery = 512
	img, err := asm.AssembleSource(`
start:  mov #0x0280, sp
        mov #10, r10
lp:     mov &0x0020, r5     ; tainted P1IN
        bit #1, r5          ; tainted Z flag
        jnz join            ; forks on the unknown branch condition
        nop
join:   dec r10
        jnz lp
end:    jmp end
`)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	opt := &Options{
		WidenAfter: 1 << 20, // unroll precisely so every lap forks
		Progress:   func(p Progress) { snaps = append(snaps, p) },
	}
	rep, err := Analyze(img, &Policy{Name: "fork-cadence", TaintedInPorts: []int{0}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Forks == 0 {
		t.Fatalf("benchmark did not fork: %s", rep.Stats)
	}
	if rep.Stats.Cycles <= 2*progressEvery {
		t.Fatalf("run too short (%d cycles) to exercise the cadence", rep.Stats.Cycles)
	}
	if len(snaps) < 2 {
		t.Fatalf("fork-heavy run starved the progress hook: %d snapshots over %d cycles",
			len(snaps), rep.Stats.Cycles)
	}
	// Emissions land within one progressEvery window of each other.
	for i := 1; i < len(snaps); i++ {
		if d := snaps[i].Stats.Cycles - snaps[i-1].Stats.Cycles; d > 2*progressEvery {
			t.Errorf("gap of %d cycles between snapshots %d and %d (cadence %d)",
				d, i-1, i, progressEvery)
		}
	}
}
