package sim

// FullSweepNext makes the next Eval of a compiled-backend circuit
// re-evaluate every gate — the cost a restore paid before restores were
// change-driven — for the baseline beside BenchmarkEvalAfterRestore.
func FullSweepNext(c *Circuit) {
	if cb, ok := c.be.(*compiled); ok {
		cb.needFull = true
		cb.pending = cb.pending[:0]
	}
}
