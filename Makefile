GO ?= go

.PHONY: check build fmt vet bench-smoke test race differential backend-differential repair-differential target-differential fault trace bench-json bench-check serve soak stream clean

# check is the CI gate: formatting, vet, build, the benchmark module's
# smoke test, the full suite under the race detector (the engine itself
# is single-threaded, but bench fan-out, the service and the CLIs are not)
# and the sample trace. The repair and target differentials select tests
# that race already runs, so check does not run them again; each keeps its
# own target and CI job.
check: fmt vet build bench-smoke race trace

build:
	$(GO) build ./...

# fmt fails on unformatted files (the same gate CI runs).
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# bench-smoke vets and tests the benchmark (glbench/), which is its own Go
# module: the root build, vet and test never compile it, yet it calls the
# service and repair APIs.
bench-smoke:
	cd glbench && $(GO) vet . && $(GO) test .

# The glift suite explores full benchmark binaries; under the race
# detector it outgrows go test's default 10m per-package timeout.
TEST_TIMEOUT ?= 45m

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# differential runs the equivalence suite under the race detector: every
# scaffold benchmark swept over (backend, workers) configurations must
# produce byte-identical reports, plus the table-contention stress test and
# the seeded program fuzzer (see DESIGN.md "Parallel exploration" and
# "Evaluation backends").
differential:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/glift \
		-run 'TestDifferential|TestTableContention|TestParallel|TestFuzz'

# backend-differential isolates the evaluation-backend contract: the
# randomized interpreter/compiled equivalence tests in internal/sim
# (including restore interleavings, the msp430/rv32 restore random walk and
# the per-lane BatchBackend sweep against the interpreter), the
# scaffold-benchmark backend sweep, and the faulted-system agreement checks
# (sequential and batched), all under the race detector. One iteration of
# the restore-layer micro-benchmark runs too, so it cannot bit-rot.
backend-differential:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/sim \
		-run 'TestBackend|TestParseBackend|TestBitslice|TestBatch'
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/sim -run '^$$' -bench EvalAfterRestore -benchtime 1x
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/glift \
		-run 'TestDifferential|TestFuzz'
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/fault \
		-run 'TestFaultBackendsAgree|TestFaultBatch'

# repair-differential pins the repair-job contract under the race detector:
# the shared round loop and its golden wire shape, the transform property
# corpus (mask idempotence, partition confinement, PC round-trips), every
# scaffold benchmark through gliftd (compiled) vs the reference loop (interp)
# byte equality including the workers sweep that justifies excluding that
# knob from the repair cache key, and the binary-level secure430-vs-daemon
# and kill -9 recovery tests (see DESIGN.md "Repair as a service").
repair-differential:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/repair ./internal/transform
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/service -run 'TestRepair'
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./integration -run 'TestRepair'

# target-differential pins the Target abstraction's two contracts, under
# the race detector. First, refactor safety: every msp430 scaffold
# benchmark's report must stay byte-identical to the committed golden
# digests captured before the Target extraction (internal/glift
# testdata/msp430_report_digests.json). Second, the rv32 target end to
# end: the gate-level core locked step for step against its behavioural
# interpreter oracle (handwritten + seeded random corpus), the registry
# and per-target job-key separation in the service (identical programs on
# different targets never coalesce; repair honestly rejected off msp430),
# and the rv32 smoke workloads through the built gliftcheck binary and a
# live gliftd daemon.
target-differential:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/glift -run 'TestGoldenReportDigests'
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/target ./internal/rv32
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/service \
		-run 'TestTargetsDoNotCoalesce|TestJobKeySeparatesTargets|TestUnknownTargetRejected|TestRepairRejectsAnalysisOnlyTarget|TestImageOutsideTargetROMRejected'
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./integration \
		-run 'TestGliftcheckTargetRV32|TestSecure430TargetRejectsRV32|TestGliftdTargetRV32'

# fault runs just the fail-closed surface: runtime budgets/cancellation
# and the fault-injection matrix.
fault:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/glift ./internal/fault

# trace runs a sample violating benchmark under gliftcheck -trace and
# validates the resulting Chrome trace with traceview. gliftcheck exits 1
# on the (expected) violations verdict; only exit codes > 1 are failures.
trace:
	$(GO) build -o bin/gliftcheck ./cmd/gliftcheck
	$(GO) build -o bin/traceview ./cmd/traceview
	@mkdir -p bin
	@printf 'start:  jmp tstart\ntstart: mov &0x0020, r15\n        mov #0x0200, r14\n        add r15, r14\n        mov #500, 0(r14)\ndone:   jmp done\ntend:   nop\n' > bin/trace-sample.s43
	@./bin/gliftcheck -tainted-in 1 -tainted-code tstart:tend -tainted-data 0x0400:0x0800 \
		-trace bin/trace-sample.json bin/trace-sample.s43 > /dev/null; st=$$?; \
		if [ $$st -gt 1 ]; then echo "gliftcheck failed ($$st)" >&2; exit $$st; fi
	./bin/traceview bin/trace-sample.json

# bench-json regenerates the committed throughput baselines: BENCH_1.json
# (cycles/sec, peak table size, peak memory and wall time for every scaffold
# benchmark per backend at Workers=1 and Workers=4, plus per-backend
# machine-speed calibration probes) and BENCH_2.json (the batched
# fault-campaign lane-count probes: aggregate throughput and speedup of
# fault.RunBatch at 1/8/64 lanes over sequential fault.Run).
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_1.json
	$(GO) run ./cmd/benchjson -fault-campaign -o BENCH_2.json

# bench-check re-measures and fails when sequential (Workers=1) throughput,
# normalized by the matching backend's calibration probe, regressed more
# than 20% against the committed baseline for any backend — or when a
# batched fault-campaign speedup ratio regressed more than 20%.
bench-check:
	$(GO) run ./cmd/benchjson -workers 1 -compare BENCH_1.json -threshold 0.20
	$(GO) run ./cmd/benchjson -fault-campaign -compare BENCH_2.json -threshold 0.20

# soak runs the chaos harness storm (gliftload -chaos: kill -9 mid-write,
# disk-full store, injected 503s) through the integration suite under the
# race detector — the daemon binaries are race-instrumented too — and fails
# on any integrity violation: a torn record served, a lost fsynced result,
# or a verdict differing from a cold run (see DESIGN.md "Durability &
# admission"). The streaming latency gate rides along: gliftload's stream
# mode (-addr) consumes every job's SSE event stream and fails the run when
# the submit-to-verdict p99 exceeds its budget.
soak:
	GLIFT_SOAK=1 $(GO) test -race -timeout $(TEST_TIMEOUT) ./integration \
		-run 'TestChaos|TestGliftdSIGTERMDrain|TestStreamLatencyGate' -v

# stream demonstrates the live-telemetry loop end to end on a throwaway
# daemon: gliftload in streaming mode consumes each job's SSE stream to its
# verdict, reports per-stage p50/p90/p99 latencies, enforces a p99 budget,
# and the NDJSON event dump is validated by traceview.
stream:
	$(GO) build -o bin/gliftd ./cmd/gliftd
	$(GO) build -o bin/gliftload ./cmd/gliftload
	$(GO) build -o bin/traceview ./cmd/traceview
	@rm -f bin/stream-events.ndjson
	./bin/gliftd -addr 127.0.0.1:8437 -workers 2 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS -o /dev/null http://127.0.0.1:8437/healthz 2>/dev/null && break; sleep 0.1; \
	done; \
	./bin/gliftload -addr http://127.0.0.1:8437 -n 24 -distinct 6 -c 4 \
		-stream-trace 4 -p99-budget 60s -stream-dump bin/stream-events.ndjson && \
	./bin/traceview bin/stream-events.ndjson

# serve builds and launches the analysis daemon (see README "Running as
# a service").
GLIFTD_ADDR ?= :8430
serve:
	$(GO) build -o bin/gliftd ./cmd/gliftd
	./bin/gliftd -addr $(GLIFTD_ADDR)

clean:
	$(GO) clean ./...
	rm -rf bin
