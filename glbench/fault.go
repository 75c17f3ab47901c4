package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/glift"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/target"
)

// campaignSrc is cmd/benchjson's fault-campaign program: nested concrete
// countdown loops that run tens of thousands of cycles and then park. The
// loops touch only r5/r6 and no ports, so every scenario below leaves the
// control flow alone and every lane parks after the fault-free cycle count.
const campaignSrc = `
start:  mov #200, r6
outer:  mov #50, r5
loop:   dec r5
        jnz loop
        dec r6
        jnz outer
park:   jmp park
`

const campaignMaxCycles = 1_000_000

// scenario draws one seeded single-fault scenario on state the campaign
// program never reads: a stuck-at bit in r8..r15, or an unknown (possibly
// tainted) input port.
func scenario(rng *rand.Rand) []fault.Fault {
	if rng.IntN(2) == 0 {
		v := logic.Zero
		if rng.IntN(2) == 0 {
			v = logic.One
		}
		return []fault.Fault{fault.StuckFF{FF: fmt.Sprintf("r%d:%d", 8+rng.IntN(8), rng.IntN(16)), Value: v}}
	}
	return []fault.Fault{fault.PortX{Port: rng.IntN(4), Taint: rng.IntN(2) == 0}}
}

// batch is one timed RunBatch call.
type batch struct {
	seconds    float64
	laneCycles uint64
	lanes      int
	maxCycles  uint64
}

type faultPhase struct {
	batches []batch
	gd      goDelta
	heap    float64
}

// runFaultPhase issues back-to-back full-width RunBatch calls over seeded
// scenarios until cfg.seconds have passed (at least three calls; a call
// whose predecessor's duration would overrun the budget is not started).
func runFaultPhase(ctx context.Context, cfg config, img *asm.Image, want uint64, res *result, traced bool) *faultPhase {
	ph := &faultPhase{}
	if traced {
		hs := startHeapSampler()
		defer func() { ph.heap = hs.peakMiB() }()
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x6661756c74))
	start := time.Now()
	for len(ph.batches) < 3 || time.Since(start).Seconds()+ph.batches[len(ph.batches)-1].seconds <= cfg.seconds.Seconds() {
		scs := make([][]fault.Fault, sim.BatchLanes)
		for i := range scs {
			scs[i] = scenario(rng)
		}
		g0 := readGo()
		t0 := time.Now()
		rs, err := fault.RunBatch(ctx, img, campaignMaxCycles, scs)
		b := batch{seconds: time.Since(t0).Seconds(), lanes: len(scs)}
		if traced {
			ph.gd.add(g0, readGo())
		}
		res.attempted += len(scs)
		if err != nil {
			for range scs {
				res.fail("RunBatch: %v", err)
			}
			return ph
		}
		for i, r := range rs {
			switch {
			case r.Err != nil:
				res.fail("scenario %s: %v", scs[i][0].Describe(), r.Err)
			case r.Cycles != want:
				res.fail("scenario %s parked after %d cycles, fault-free run %d", scs[i][0].Describe(), r.Cycles, want)
			}
			b.laneCycles += r.Cycles
			b.maxCycles = max(b.maxCycles, r.Cycles)
		}
		ph.batches = append(ph.batches, b)
	}
	return ph
}

func (ph *faultPhase) totals() (secs, laneCycles, lanes float64, per []float64) {
	for _, b := range ph.batches {
		secs += b.seconds
		laneCycles += float64(b.laneCycles)
		lanes += float64(b.lanes)
		per = append(per, b.seconds)
	}
	return
}

func runFaultCampaign(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	msp := target.Default()
	setupSpans := newSpans()
	var img *asm.Image
	setups, err := timedSetups(setupRuns, func() error {
		if _, err := buildDesign(msp, setupSpans); err != nil {
			return err
		}
		id := setupSpans.begin("asm.assemble", -1)
		var err error
		img, err = msp.Assemble(campaignSrc)
		setupSpans.end(id)
		return err
	})
	if err != nil {
		return nil, err
	}
	// RunBatch simulates on the shared msp430 design; build it now, outside
	// the timed region, and take the fault-free cycle count every lane must
	// reproduce from one scalar run.
	glift.SharedDesign()
	want, err := fault.Run(ctx, img, campaignMaxCycles)
	if err != nil {
		return nil, fmt.Errorf("fault-free run: %w", err)
	}

	res.info["rss_reset"] = resetPeakRSS()
	plain := runFaultPhase(ctx, cfg, img, want, res, false)
	rss := peakRSSMiB()
	secs, laneCycles, lanes, per := plain.totals()
	cps := ratio(laneCycles, secs)
	res.e2e["setup_s"] = median(setups)
	res.e2e["cycles_per_s"] = cps
	res.e2e["ops_per_s"] = ratio(lanes, secs)
	res.e2e["op_p50_s"] = median(per)
	res.e2e["peak_rss_mib"] = rss

	res.add("setup_s", median(setups), "s", len(setups))
	res.add("fault_cycles_per_s", cps, "lane-cycles/s", len(per))
	res.add("scenarios_per_s", ratio(lanes, secs), "1/s", int(lanes))
	res.add("batch_p50_s", median(per), "s", len(per))
	res.add("peak_rss_mib", rss, "MiB", 0)
	res.info["fault_free_cycles"] = want
	res.info["lanes_per_batch"] = sim.BatchLanes

	if cfg.trace {
		traced := runFaultPhase(ctx, cfg, img, want, res, true)
		tsecs, tlc, _, tper := traced.totals()
		l := res.layer
		l["mcu.design_build_s"] = median(setupSpans.durations("mcu.design_build"))
		l["asm.assemble_s"] = median(setupSpans.durations("asm.assemble"))
		l["fault.batch_s_p50"] = median(tper)
		occupied := 0.0
		for _, b := range traced.batches {
			occupied += float64(b.maxCycles) * sim.BatchLanes
		}
		l["fault.lane_occupancy"] = ratio(tlc, occupied)
		l["fault.ns_per_lane_cycle"] = ratio(tsecs*1e9, tlc)
		l["go.alloc_bytes_per_cycle"] = ratio(traced.gd.allocBytes, tlc)
		l["go.gc_cpu_share"] = traced.gd.gcShare()
		l["go.heap_peak_mib"] = traced.heap
		l["trace.overhead_ratio"] = ratio(cps, ratio(tlc, tsecs))
		res.add("traced_fault_cycles_per_s", ratio(tlc, tsecs), "lane-cycles/s", len(tper))
	}
	res.finishTable()
	return res, nil
}
