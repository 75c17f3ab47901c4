package glift

import (
	"sync"
	"sync/atomic"

	"repro/internal/mcu"
)

// Parallel exploration.
//
// The work queue's paths are independent simulations, but the conservative
// state table is not: whether a path prunes, how table entries widen, and
// every Stats counter depend on the exact order in which merge points hit
// the table. A racy table behind locks would make reports depend on thread
// scheduling — unacceptable, because Options.Workers is excluded from
// content-addressed job keys on the guarantee that results are identical.
//
// The engine therefore parallelizes the expensive part (gate-level
// simulation) while keeping the table protocol strictly sequential:
//
//   - N-1 speculation workers pull queued pathStates and run the committer's
//     own per-path loop (runPath) on private mcu.System instances, with a
//     recorder as its sink instead of the table: the trace holds the
//     post-state snapshot at every PC-changing commit, the violations raised
//     in between, and the events that ended the segment (the straight-line
//     budget, fork successors) — or marks it truncated.
//   - The committer (the RunContext goroutine) pops the work queue in
//     normal DFS order. When a completed trace exists for the popped item
//     it hands the recorded events to the same methods the live path calls
//     — at snapshot-compare speed instead of simulation speed. The moment
//     the authoritative table disagrees with what the speculation assumed
//     (a prune, or a widen that changes the continuation state), the
//     remaining trace is discarded and the committer resumes live
//     simulation from the last recorded snapshot.
//
// Speculation is sound because table feedback into a running path happens
// only at a widen (the path continues from the merged superstate) — and
// that is exactly where replay falls back to live execution. Everywhere
// else the sequential engine continues from its own post-state, which the
// worker, having started from the same snapshot and simulated the same
// deterministic netlist, reproduced bit-identically. Misprediction
// therefore costs wasted worker time, never a wrong answer.

// SchedStats is a point-in-time view of the speculation scheduler,
// exported through Progress for observability. It is deliberately kept out
// of Stats: reports must stay byte-identical across worker counts.
type SchedStats struct {
	// Workers is the number of speculation workers (0: sequential run).
	Workers int
	// Busy is how many workers are simulating a segment right now.
	Busy int
	// DequeDepth is the number of queued path states no worker has claimed.
	DequeDepth int
	// Steals counts path states claimed by speculation workers.
	Steals uint64
	// SpecUsed counts speculated traces the committer replayed.
	SpecUsed uint64
	// SpecWasted counts claimed segments the committer reached before their
	// speculation finished, once each; the worker's time on them is lost.
	SpecWasted uint64
}

// specItem states. An item moves specPending → specClaimed → specDone as a
// worker processes it; the committer moves it to specTaken from any
// non-done state when it pops the item, which tells an in-flight worker to
// abandon the segment.
const (
	specPending int32 = iota
	specClaimed
	specDone
	specTaken
)

// specEvent is one recorded runner event other than a merge point: a
// violation raise, the straight-line budget crossing (budget set) or a fork
// successor (post set). cycles is the segment's committed-cycle count when
// it happened and curInstr the executing instruction.
type specEvent struct {
	cycles   uint64
	curInstr uint16
	kind     Kind
	pc       uint16
	detail   string
	budget   bool
	key      forkKey
	post     *mcu.Snapshot
}

// specOp is one recorded PC-changing commit: the events since the previous
// op, the table key and the post-commit machine state.
type specOp struct {
	events   []specEvent
	key      forkKey
	post     *mcu.Snapshot
	curInstr uint16
	cycles   uint64 // segment cycles committed, including this op's cycle
}

// specTrace is the record of one speculated segment. A segment is either
// done — it ran to the end of its path, and tail holds the events after its
// last op, ending with the budget crossing, the unknown fetch or the fork
// outcomes that ended it — or truncated, and the committer resumes live from
// its last op.
type specTrace struct {
	ops       []specOp
	tail      []specEvent
	truncated bool
	// endCycles is the segment cycles committed when its last cycle began.
	endCycles uint64
	bytes     int64 // snapshot bytes accounted against the pool budget
}

// specItem is one queued path state as the pool tracks it.
type specItem struct {
	id       uint64
	snap     *mcu.Snapshot
	curInstr uint16
	state    atomic.Int32
	trace    *specTrace
}

// maxSpecOps caps the ops recorded per segment, bounding both a single
// trace's memory and the worst-case waste when a trace is discarded.
const maxSpecOps = 4096

// specPool runs the speculation workers and tracks per-item state.
type specPool struct {
	e       *Engine
	workers int
	// budget bounds the snapshot bytes retained by not-yet-replayed traces
	// across all workers (the atomic footprint counter for speculation).
	// Crossing it only truncates new traces — it never aborts anything, so
	// it cannot influence the report.
	budget int64

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*specItem
	items   map[uint64]*specItem
	stopped bool

	wg   sync.WaitGroup
	done atomic.Bool

	busy      atomic.Int64
	steals    atomic.Uint64
	used      atomic.Uint64
	wasted    atomic.Uint64
	specBytes atomic.Int64
}

func newSpecPool(e *Engine, workers int) *specPool {
	budget := int64(512 << 20)
	if e.opt.SoftMemBytes > 0 {
		budget = e.opt.SoftMemBytes
	}
	p := &specPool{
		e:       e,
		workers: workers,
		budget:  budget,
		items:   make(map[uint64]*specItem),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// offer registers a freshly enqueued path state for speculation. Called by
// the committer only; snapshots are immutable once taken, so sharing them
// with workers needs no copying.
func (p *specPool) offer(id uint64, snap *mcu.Snapshot, curInstr uint16) {
	it := &specItem{id: id, snap: snap, curInstr: curInstr}
	p.mu.Lock()
	p.items[id] = it
	p.pending = append(p.pending, it)
	p.mu.Unlock()
	p.cond.Signal()
}

// take claims the popped item for the committer. It returns the completed
// speculation trace if one exists; otherwise it marks the item taken (which
// aborts any in-flight worker) and the committer simulates live.
func (p *specPool) take(id uint64) *specTrace {
	p.mu.Lock()
	it := p.items[id]
	delete(p.items, id)
	p.mu.Unlock()
	if it == nil {
		return nil
	}
	for {
		switch st := it.state.Load(); st {
		case specDone:
			p.used.Add(1)
			p.specBytes.Add(-it.trace.bytes)
			return it.trace
		default:
			if it.state.CompareAndSwap(st, specTaken) {
				if st == specClaimed {
					p.wasted.Add(1)
				}
				return nil
			}
		}
	}
}

// stop terminates the workers and waits for them; in-flight segments are
// abandoned at their next poll.
func (p *specPool) stop() {
	p.done.Store(true)
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// sched snapshots the scheduler state for Progress emissions.
func (p *specPool) sched() SchedStats {
	depth := 0
	p.mu.Lock()
	for _, it := range p.pending {
		if it.state.Load() == specPending {
			depth++
		}
	}
	p.mu.Unlock()
	return SchedStats{
		Workers:    p.workers,
		Busy:       int(p.busy.Load()),
		DequeDepth: depth,
		Steals:     p.steals.Load(),
		SpecUsed:   p.used.Load(),
		SpecWasted: p.wasted.Load(),
	}
}

// next claims the most recently queued unclaimed item — the one the
// committer will reach soonest under DFS order, which maximizes the chance
// the speculation completes in time to be used.
func (p *specPool) next() *specItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.pending) > 0 {
			it := p.pending[len(p.pending)-1]
			p.pending = p.pending[:len(p.pending)-1]
			if it.state.CompareAndSwap(specPending, specClaimed) {
				p.steals.Add(1)
				return it
			}
		}
		if p.stopped {
			return nil
		}
		p.cond.Wait()
	}
}

// worker is one speculation goroutine: claim, simulate, publish.
func (p *specPool) worker() {
	defer p.wg.Done()
	var sys *mcu.System
	for {
		it := p.next()
		if it == nil {
			return
		}
		if sys == nil {
			s, err := buildSystem(p.e.design, p.e.img, p.e.Pol, p.e.opt.Backend)
			if err != nil {
				// Cannot build a private system: release the claim so the
				// committer simulates live, and retire this worker.
				it.state.CompareAndSwap(specClaimed, specTaken)
				return
			}
			sys = s
		}
		p.busy.Add(1)
		tr := p.speculateSafe(sys, it)
		p.busy.Add(-1)
		sys.Events() // drain diagnostics so a reused system cannot grow unbounded
		p.publish(it, tr)
	}
}

// publish installs a completed trace on its item (or releases the claim when
// tr is nil, so the committer simulates the item live).
func (p *specPool) publish(it *specItem, tr *specTrace) {
	if tr == nil {
		it.state.CompareAndSwap(specClaimed, specTaken)
		return
	}
	p.specBytes.Add(tr.bytes)
	it.trace = tr
	if !it.state.CompareAndSwap(specClaimed, specDone) {
		// The committer reached the item while we simulated it; take
		// counted the waste.
		p.specBytes.Add(-tr.bytes)
	}
}

// speculateSafe runs speculate under a recover barrier: if the simulation
// panics, the trace is dropped and the committer reproduces the panic live
// inside RunContext's fail-closed recover, so parallel runs keep the exact
// InternalError semantics of sequential ones.
func (p *specPool) speculateSafe(sys *mcu.System, it *specItem) (tr *specTrace) {
	defer func() {
		if r := recover(); r != nil {
			tr = nil
		}
	}()
	return p.speculate(sys, it)
}

// speculate simulates one queued path state table-blind, recording the
// trace the committer needs to replay it deterministically. Returns nil when
// the segment was abandoned (committer took the item, or the pool stopped).
func (p *specPool) speculate(sys *mcu.System, it *specItem) *specTrace {
	sys.Restore(it.snap)
	r := &recorder{p: p, it: it, tr: &specTrace{}, curInstr: it.curInstr,
		seen: make(map[Violation]bool), self: make(map[forkKey]*mcu.Snapshot)}
	p.e.runPath(sys, r, it.curInstr, 0)
	if r.abandoned {
		return nil
	}
	return r.tr
}

// recorder is a speculation worker's pathSink: it appends every event to
// the segment's trace and keeps the stop rules that belong to workers —
// abandonment, truncation where the committer will almost certainly prune,
// and the op, byte and cycle caps. The only table it consults is the
// segment's own (self), used purely to stop simulating loops that will
// certainly prune.
type recorder struct {
	p         *specPool
	it        *specItem
	tr        *specTrace
	cycles    uint64 // segment cycles committed
	curInstr  uint16
	seen      map[Violation]bool
	self      map[forkKey]*mcu.Snapshot
	abandoned bool
}

func (r *recorder) more(cycles uint64) bool {
	// An atomic load per cycle is noise next to a netlist evaluation, and
	// abandoning a segment the committer already passed frees this worker
	// for an item whose trace can still arrive in time.
	if r.it.state.Load() == specTaken || r.p.done.Load() {
		r.abandoned = true
		return false
	}
	r.tr.endCycles = cycles
	if cycles >= r.p.e.opt.MaxCycles {
		// The segment alone exceeds the whole run's cycle budget; whatever
		// the committer does, it will stop inside this stretch.
		r.tr.truncated = true
		return false
	}
	return true
}

func (r *recorder) observe(_ *mcu.CycleInfo, curInstr uint16) { r.curInstr = curInstr }

func (r *recorder) advanceCycles(delta uint64) { r.cycles += delta }

// violation records a raise unless the segment already raised it, dropping
// exactly the raises the committer's deduplication would drop.
func (r *recorder) violation(k Kind, pc uint16, detail string) {
	key := violationDedupKey(k, pc)
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.record(specEvent{kind: k, pc: pc, detail: detail})
}

func (r *recorder) successor(k forkKey, post *mcu.Snapshot) {
	r.record(specEvent{key: k, post: post})
	r.tr.bytes += r.p.e.snapBytes
}

func (r *recorder) pathBudget() { r.record(specEvent{budget: true}) }

// record appends an event to the stretch since the last op.
func (r *recorder) record(ev specEvent) {
	ev.cycles, ev.curInstr = r.cycles, r.curInstr
	r.tr.tail = append(r.tr.tail, ev)
}

// merge records an op; the segment goes on from post unless a stop rule
// truncates it here.
func (r *recorder) merge(k forkKey, post *mcu.Snapshot) *mcu.Snapshot {
	r.tr.ops = append(r.tr.ops, specOp{events: r.tr.tail, key: k, post: post, curInstr: r.curInstr, cycles: r.cycles})
	r.tr.tail = nil
	r.tr.bytes += r.p.e.snapBytes
	prev, ok := r.self[k]
	switch {
	case r.p.e.tableCovers(k, post):
		// The authoritative table already covers this state: the
		// committer will almost certainly prune at this op, so
		// simulating further is almost certainly waste. This read is
		// advisory — it decides only where the trace stops, never what
		// it contains, so a stale answer costs time, not determinism.
	case ok && post.SubstateOf(prev):
		// The segment revisits its own merge point with a covered state:
		// the authoritative table will prune here too (its entry covers
		// at least as much), so simulating further is pure waste.
	case len(r.tr.ops) >= maxSpecOps || r.p.specBytes.Load()+r.tr.bytes > r.p.budget:
	default:
		r.self[k] = post
		return post
	}
	r.tr.truncated = true
	return nil
}

// tableCovers reports whether the authoritative table entry at k already
// covers post. Speculation workers use it to stop simulating a segment the
// committer will prune — in the converged regime most popped paths die at
// their first merge point, and a table-blind worker would otherwise burn
// its time simulating far beyond it. The answer is advisory: it truncates
// the trace (whose tail the committer replaces with live execution when
// the real table disagrees), so a racy-stale read can cost throughput but
// can never change the report.
func (e *Engine) tableCovers(k forkKey, post *mcu.Snapshot) bool {
	e.tableMu.RLock()
	defer e.tableMu.RUnlock()
	c, ok := e.table[k]
	return ok && post.SubstateOf(c.snap)
}

// replayTrace commits one speculated segment: it hands the recorded events
// and merge points to the committer's own pathSink methods in exact
// sequential order, with their exact cycle stamps, and falls back to live
// simulation where the table's verdict diverges from what the speculation
// could assume (a prune ends the path; a widen resumes it live from the
// merged superstate), where the trace was truncated, and where the
// global cycle budget ends the run inside a recorded stretch (finished live
// so the stop lands exactly where the sequential run stops). A stretch is
// replayed only if its last cycle begins inside that budget.
func (e *Engine) replayTrace(ps pathState, tr *specTrace) {
	segBase := e.report.Stats.Cycles
	committed := uint64(0)
	advanceTo := func(c uint64) {
		if c > committed {
			e.advanceCycles(c - committed)
			committed = c
		}
	}
	replay := func(evs []specEvent) {
		for i := range evs {
			ev := &evs[i]
			advanceTo(ev.cycles)
			e.curInstr = ev.curInstr
			switch {
			case ev.budget:
				e.pathBudget()
			case ev.post != nil:
				e.successor(ev.key, ev.post)
			default:
				e.violation(ev.kind, ev.pc, ev.detail)
			}
		}
	}
	// The last applied op (initially the segment start) is where live
	// execution resumes.
	snap, curInstr, cycles := ps.snap, ps.curInstr, uint64(0)
	for i := range tr.ops {
		op := &tr.ops[i]
		if e.ctx.Err() != nil {
			return // the outer loop records the cancellation
		}
		if segBase+op.cycles > e.opt.MaxCycles {
			e.resume(snap, curInstr, cycles)
			return
		}
		replay(op.events)
		advanceTo(op.cycles)
		e.curInstr = op.curInstr
		cont := e.merge(op.key, op.post)
		if cont == nil {
			return
		}
		snap, curInstr, cycles = cont, op.curInstr, op.cycles
		if cont != op.post {
			// The table continues from the merged superstate, which the
			// table-blind speculation could not know; the rest of the
			// trace no longer applies.
			e.resume(snap, curInstr, cycles)
			return
		}
	}
	if e.ctx.Err() != nil {
		return
	}
	if tr.truncated || segBase+tr.endCycles >= e.opt.MaxCycles {
		e.resume(snap, curInstr, cycles)
		return
	}
	replay(tr.tail)
}
