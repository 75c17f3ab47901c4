package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/repair"
	"repro/internal/target"
)

// Repair-job mode: a submission with "mode": "repair" runs the
// analyze→mask→re-verify loop of internal/repair — the exact code path
// cmd/secure430 runs, which is what makes the daemon's patched assembly
// byte-identical to the CLI's for identical inputs — server-side on the
// worker pool, under the job's deadline/cancellation, admission and
// persistence machinery. Each round publishes a `round` event on the job's
// stream; the completed payload (patched assembly, per-round counts, the
// targeted-vs-always-on overhead comparison and the final report) is cached
// and persisted like an analysis result, in its own domain-tagged keyspace.

// repairKind is one run of the repair loop over a validated spec, on the
// target's design.
type repairKind struct {
	tgt  *target.Target
	spec repair.Spec
}

// compileRepair turns a repair-mode request into its kind, reporting user
// errors the HTTP layer maps to 400.
func compileRepair(req *JobRequest, tgt *target.Target, pol *glift.Policy) (jobKind, error) {
	// Honest capability gating: the repair pipeline parses, rewrites and
	// re-assembles msp430 assembly; other targets are analysis-only until
	// their ISAs grow transform support.
	if !tgt.SupportsRepair {
		return nil, fmt.Errorf("repair mode is not supported for target %q (only msp430 has transform/repair support)", tgt.Name)
	}
	if req.IHex != "" {
		return nil, fmt.Errorf("repair mode requires source (the loop re-parses and rewrites assembly; ihex images cannot be repaired)")
	}
	if req.Source == "" {
		return nil, fmt.Errorf("missing program: repair mode requires source")
	}
	if len(req.Policy.TaintedCode) > 0 {
		// Mask insertion moves code, so numeric ranges fixed at submission
		// time would silently mislabel later rounds; symbolic ranges under
		// repair.tainted_code re-resolve per round instead.
		return nil, fmt.Errorf("repair mode rejects numeric policy.tainted_code ranges: give symbolic lo:hi specs in repair.tainted_code, re-resolved each round")
	}
	rr := req.Repair
	if rr == nil {
		rr = &RepairRequest{}
	}
	if rr.Rounds < 0 {
		return nil, fmt.Errorf("negative repair rounds")
	}
	k := &repairKind{tgt: tgt, spec: repair.Spec{
		Source:     req.Source,
		Policy:     *pol,
		CodeRanges: rr.TaintedCode,
		MaxRounds:  rr.Rounds,
		TaskCycles: rr.TaskCycles,
	}}
	if rr.Partition != "" {
		var err error
		if k.spec.Partition, err = repair.ParsePartition(rr.Partition); err != nil {
			return nil, err
		}
	}
	if err := k.spec.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *repairKind) mode() string { return modeRepair }

// writeKey hashes the design fingerprint, the "repair/v1" domain tag and
// the loop's inputs: source text (the loop re-parses it every round, so the
// text itself is the input), policy, per-round code-range specs, partition,
// round budget and task-cycle anchor. The domain tag keeps repair keys
// disjoint from analysis keys, so one store and one cache serve both kinds
// without ambiguity.
func (k *repairKind) writeKey(s *Server, h keyHash) {
	_, fp := s.designFor(k.tgt)
	h.Write(fp[:])
	h.Write([]byte("repair/v1\x00"))
	h.putBytes([]byte(k.spec.Source))
	h.putBytes(k.spec.Policy.CanonicalJSON())
	h.put(uint32(len(k.spec.CodeRanges)))
	for _, r := range k.spec.CodeRanges {
		h.putBytes([]byte(r))
	}
	h.put(k.spec.Partition.Lo)
	h.put(k.spec.Partition.Size)
	h.put(int64(k.spec.MaxRounds))
	h.put(k.spec.TaskCycles)
}

// run executes the whole round loop as the job's engine-run stage. Every
// round is one engine run: it gets a fresh progress hook, is observed in
// the engine run-time histogram, and publishes a `round` boundary event on
// the job's stream.
func (k *repairKind) run(ctx context.Context, s *Server, j *job, opt *glift.Options) (*cachedResult, runCost) {
	spec := k.spec
	spec.Options = opt
	spec.RoundProgress = func(int) func(glift.Progress) { return s.progressHook(j) }
	var cost runCost
	spec.OnRound = func(rr repair.Round) {
		cost.engineRuns++
		cost.cycles += rr.Stats.Cycles
		s.prom.runDur.With(rr.Verdict.String()).Observe(float64(rr.Stats.WallNanos) / 1e9)
		s.publish(j.id, EventRound, RoundEventJSON{
			ID:                j.id,
			Round:             rr.Round,
			MaskedStores:      rr.MaskedStores,
			Violations:        rr.Violations,
			ViolatingStorePCs: rr.ViolatingPCs,
			NewlyFlagged:      rr.NewlyFlagged,
			Verdict:           rr.Verdict.String(),
		})
	}

	design, _ := s.designFor(k.tgt)
	var out *repair.Result
	var err error
	pprof.Do(ctx, pprof.Labels("glift_job", j.id, "glift_policy", spec.Policy.Name),
		func(ctx context.Context) { out, err = repair.RunOn(ctx, design, &spec) })
	res := &cachedResult{}
	masked := 0
	if err != nil {
		// The spec was validated at submission time, so this is an internal
		// failure of the loop itself; report it fail-closed.
		res.rep = &glift.Report{Policy: spec.Policy.Name, Err: &glift.RunError{Reason: err.Error()}}
	} else {
		rj := out.JSON()
		res.rep, res.rres = out.Report, &rj
		masked = out.Overheads.Targeted.MaskedStores
	}
	s.prom.repairJobs.Inc()
	s.prom.repairRounds.Add(float64(cost.engineRuns))
	s.prom.repairMasked.Add(float64(masked))
	return res, cost
}

// decode rebuilds a stored repair payload: it must parse and pass
// ResultJSON.Validate (the embedded report rebuilds and re-derives its
// verdict, which the final round must match), and the patched assembly must
// still assemble.
func (k *repairKind) decode(payload []byte) (*cachedResult, error) {
	var rj repair.ResultJSON
	if err := json.Unmarshal(payload, &rj); err != nil {
		return nil, err
	}
	if err := rj.Validate(); err != nil {
		return nil, err
	}
	rep, err := rj.Report.Report()
	if err != nil {
		return nil, err
	}
	if _, err := asm.AssembleSource(rj.PatchedAsm); err != nil {
		return nil, err
	}
	return &cachedResult{rep: rep, rres: &rj}, nil
}
