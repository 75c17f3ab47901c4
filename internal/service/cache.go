package service

import (
	"encoding/json"

	"repro/internal/glift"
	"repro/internal/repair"
)

// cachedResult is one completed execution in the result cache: the final
// analysis report, plus — for repair jobs — the full repair payload in wire
// form. Analysis and repair keys live in disjoint keyspaces (repair keys
// are domain-tagged), so an entry's shape is determined by its key.
type cachedResult struct {
	rep  *glift.Report
	rres *repair.ResultJSON // non-nil for repair jobs
}

// encode is the result's store payload: the repair payload for repair
// jobs, the report's wire form otherwise.
func (c *cachedResult) encode() ([]byte, error) {
	if c.rres != nil {
		return json.Marshal(c.rres)
	}
	return json.Marshal(c.rep.JSON())
}

// resultCache is the content-addressed result store: completed results keyed
// by canonical job key. Results are immutable after completion, so entries
// are shared by pointer. Eviction is FIFO by insertion order — the cache is
// a bounded memo, not a working-set optimizer, and FIFO keeps it O(1) with
// no per-hit bookkeeping. All methods are called under Server.mu.
type resultCache struct {
	cap     int
	entries map[string]*cachedResult
	order   []string // insertion order for FIFO eviction
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, entries: make(map[string]*cachedResult)}
}

func (c *resultCache) get(key string) (*cachedResult, bool) {
	res, ok := c.entries[key]
	return res, ok
}

func (c *resultCache) put(key string, res *cachedResult) {
	if _, exists := c.entries[key]; exists {
		c.entries[key] = res
		return
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = res
	c.order = append(c.order, key)
}

func (c *resultCache) len() int { return len(c.entries) }
