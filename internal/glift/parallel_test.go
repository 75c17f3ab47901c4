package glift

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mcu"
)

// replayCase is one analysis the replay test runs twice: sequentially, and
// with every popped path committed through replayTrace.
type replayCase struct {
	name string
	src  string
	pol  *Policy
	opt  Options
}

// replayRun analyzes c and returns the wall-time-normalized report JSON and
// the Tracer stream. With replay set, a zero-worker pool is installed and
// each popped path is speculated synchronously on a second system from the
// EvPathStart callback, before the committer takes it: every path is then
// committed through replayTrace rather than live, deterministically.
func replayRun(t *testing.T, c replayCase, replay bool) ([]byte, []TraceEvent) {
	t.Helper()
	img := mustImage(t, c.src)
	opt := c.opt
	opt.Workers = 1
	var events []TraceEvent
	var pool *specPool
	var sys *mcu.System
	opt.Tracer = func(ev TraceEvent) {
		ev.WallNS = 0
		events = append(events, ev)
		if replay && ev.Kind == EvPathStart {
			it := pool.next()
			pool.publish(it, pool.speculate(sys, it))
		}
	}
	e, err := NewEngine(img, c.pol, &opt)
	if err != nil {
		t.Fatal(err)
	}
	if replay {
		if sys, err = buildSystem(e.design, img, c.pol, opt.Backend); err != nil {
			t.Fatal(err)
		}
		pool = newSpecPool(e, 0)
		e.pool = pool
	}
	rep := e.Run()
	if replay && pool.used.Load() != uint64(rep.Stats.Paths) {
		t.Fatalf("%s: %d of %d paths replayed", c.name, pool.used.Load(), rep.Stats.Paths)
	}
	j := rep.JSON()
	j.Stats.WallNanos = 0
	out, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return out, events
}

// checkReplay byte-compares the replayed run of c with the sequential one:
// the report and every Tracer event but its wall time.
func checkReplay(t *testing.T, c replayCase) {
	t.Helper()
	wantRep, wantEv := replayRun(t, c, false)
	gotRep, gotEv := replayRun(t, c, true)
	if string(gotRep) != string(wantRep) {
		t.Fatalf("%s: replayed report differs:\n%s\nsequential:\n%s", c.name, gotRep, wantRep)
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%s: %d tracer events replayed, %d sequential", c.name, len(gotEv), len(wantEv))
	}
	for i := range wantEv {
		if gotEv[i] != wantEv[i] {
			t.Fatalf("%s: tracer event %d differs: replayed %+v, sequential %+v", c.name, i, gotEv[i], wantEv[i])
		}
	}
}

// replayForkSrc forks on a tainted bit every lap of a loop that the
// exploration must widen to converge. One side of each fork runs a concrete
// countdown, so segments span many merge points and outlast a tight
// straight-line budget, and the stores raise violations along the way.
const replayForkSrc = `
start:  mov &0x0020, r5
        mov #3, r11
outer:  bit #1, r5
        jnz odd
        mov #8, r10
inner:  dec r10
        jnz inner
        mov r10, &0x0300
odd:    rra r5
        dec r11
        jnz outer
        mov r5, &0x002e
        jmp start
`

// TestReplayEveryPath commits every path of a run through replayTrace and
// requires the sequential run's report and Tracer stream. The MaxCycles
// sweep stops the run on every cycle of a fork-heavy program, with and
// without a straight-line budget that some paths exceed, so each fallback
// to live execution — a widen, a truncated trace, and a global budget
// crossing inside a stretch or before a segment's last cycle — meets every
// kind of cycle; the fuzz generator's programs add volume.
func TestReplayEveryPath(t *testing.T) {
	pol := &Policy{Name: "integrity", TaintedInPorts: []int{0}, TaintedOutPorts: []int{1}}
	for _, maxPath := range []uint64{0, 20} {
		opt := Options{WidenAfter: 8, MaxPathCycles: maxPath}
		rep, err := Analyze(mustImage(t, replayForkSrc), pol, &opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Forks == 0 || rep.Stats.Merges == 0 || rep.Stats.Prunes == 0 || len(rep.Violations) == 0 {
			t.Fatalf("subject too tame: %s, %d violations", rep.Stats, len(rep.Violations))
		}
		if budgeted := hasKind(rep, AnalysisIncomplete); budgeted != (maxPath != 0) {
			t.Fatalf("MaxPathCycles=%d: straight-line budget crossed = %v", maxPath, budgeted)
		}
		for mc := uint64(1); mc <= rep.Stats.Cycles; mc++ {
			opt.MaxCycles = mc
			checkReplay(t, replayCase{
				name: fmt.Sprintf("MaxCycles=%d MaxPathCycles=%d", mc, maxPath),
				src:  replayForkSrc, pol: pol, opt: opt,
			})
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < *fuzzProgs; i++ {
			checkReplay(t, replayCase{
				name: fmt.Sprintf("fuzz seed %d program %d", seed, i),
				src:  genProgram(r), pol: pol, opt: *fuzzOptions(fuzzConfig{}),
			})
		}
	}
}

// TestSpecWastedCountsOnce: a segment the committer takes while a worker
// still simulates it is wasted once, even when the worker then finishes it
// and publishes the trace.
func TestSpecWastedCountsOnce(t *testing.T) {
	e, err := NewEngine(mustImage(t, "start: jmp start\n"), &Policy{Name: "wasted"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := newSpecPool(e, 0)
	defer p.stop()
	p.offer(1, nil, 0)
	it := p.next()
	if tr := p.take(it.id); tr != nil {
		t.Fatal("take returned a trace for a segment still being simulated")
	}
	p.publish(it, &specTrace{})
	if got := p.sched().SpecWasted; got != 1 {
		t.Fatalf("SpecWasted = %d, want 1", got)
	}
}
