GO ?= go

.PHONY: all build test fmt vet lint loc audit race idle-history world-build bench-module bench bench-record bench-large bench-guard bench-paper check check-v2 faults obs serve shards clean

all: build

build:
	$(GO) build ./...

# gofmt gate: every Go file under the repo root, benchmark/ included,
# must be gofmt-clean; the offenders are listed on failure. Hidden
# top-level directories (.git, benchmark/run.sh's .bench_build with its
# unpacked source trees) are skipped.
fmt:
	@out=$$(find . -name '*.go' -not -path './.*' | xargs gofmt -l); \
	test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# detlint: the determinism analyzers over the whole module — cmd/ and
# the top-level package included, internal/lint itself excluded —
# re-analyzed from source on every run. The second step audits
# //detlint:allow directives: every suppression must carry a
# "-- justification" trailer. See DESIGN.md §7 and §12.
lint:
	$(GO) run ./cmd/dcflint ./...
	@$(GO) run ./cmd/dcflint -audit-allows ./... >/dev/null

# Non-test line count, as ROADMAP.md defines it: tracked .go files
# under bench.go, cmd/ and internal/, without _test.go files and
# testdata/.
loc:
	@git ls-files -- bench.go 'cmd/*.go' 'internal/*.go' | grep -v -e '_test\.go$$' -e '/testdata/' | xargs cat | wc -l

# Deeper, slower checks that are not part of the pre-merge gate: vet's
# unsafe-pointer analyzer, plus govulncheck when installed (best-effort —
# the container may be offline or lack the tool).
audit:
	$(GO) vet -unsafeptr ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "audit: govulncheck reported findings (non-blocking)"; \
	else \
		echo "audit: govulncheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Monitor idle-history gate, run without -short: the differential
# quickcheck of core.IdleObserver against the linear-scan reference and
# the 10 s goldens, the only ones long enough to prune the history.
idle-history:
	$(GO) test -count=1 -run 'IdleObserverMatchesLinearReference|GoldenLongRun' ./internal/core ./internal/experiment

# World-build gate, run without -short: the exactness quickchecks of
# the grid-indexed topo.Random against the all-pairs reference, of
# phys.Grid against a linear scan, and of the v2 neighbor index against
# brute force (the 200-node corridor case included), plus one pass of
# the world-build benchmarks.
world-build:
	$(GO) test -count=1 -run 'RandomMatchesQuadraticReference|GridMatchesScan|V2GridMatchesBruteForce' -bench 'RandomTopo|BuildIndex' -benchtime 1x ./internal/topo ./internal/phys ./internal/medium

# The benchmark/ module is a separate Go module that imports
# internal/sim, internal/experiment and internal/serve, so ./... from the
# root never reaches it: vet and test it on its own, so an internal API
# change cannot break the benchmark unnoticed.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One iteration of every benchmark: catches bench-harness rot and gross
# regressions without the minutes-long auto-scaled run.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# Re-records the committed BENCH.json: the baselines the guards read
# (bench-guard, obs, serve), timed with the guards' own estimator.
# Machine-local, like the guards; run it on the host that runs them.
bench-record:
	$(GO) run ./cmd/macsim bench

# One iteration of the large-topology scaling benchmarks (channel model
# v2 at 200 and 400 nodes).
bench-large:
	$(GO) test -run '^$$' -bench 'RunRandom[24]00' -benchtime=1x -benchmem .

# The end-to-end number: wall time of every figure at the paper's own
# settings (30 seeds x 50 s per point, default channel), with the
# host's CPU count and GOMAXPROCS, into results/bench-paper.txt; the
# tables go to results/bench-paper.log. About half an hour on a 2-CPU
# host, so it is not part of check.
bench-paper:
	@mkdir -p results
	@bin=$$(mktemp -d)/figures && $(GO) build -o $$bin ./cmd/figures && \
	start=$$(date +%s.%N) && $$bin -fig all > results/bench-paper.log && end=$$(date +%s.%N) && \
	rm -r $$(dirname $$bin) && \
	{ echo "command     figures -fig all (30 seeds x 50 s per point, channel v2)"; \
	  awk -v a=$$start -v b=$$end 'BEGIN { printf "wall_s      %.1f\n", b - a }'; \
	  echo "nproc       $$(nproc)"; \
	  echo "GOMAXPROCS  $${GOMAXPROCS:-$$(nproc) (default)}"; \
	  echo "go          $$($(GO) env GOVERSION)"; } | tee results/bench-paper.txt

# Kernel-throughput guard: RunRandom40V2 and RunRandom400 must sustain
# ≥95% of the events/sec recorded in BENCH.json (same machine-local
# caveat and env gate as the obs overhead guard), and on hosts with 4+
# CPUs the 4-shard 10k-node run must beat the serial kernel by ≥2.5x
# (ShardSpeedupGuard self-skips elsewhere). Writes a CPU profile so a
# failing CI run ships the evidence as an artifact.
bench-guard:
	@mkdir -p results
	DCFGUARD_OVERHEAD_GUARD=1 $(GO) test -count=1 -run 'KernelThroughputGuard|ShardSpeedupGuard' \
		-cpuprofile results/bench-guard-cpu.prof -o results/bench-guard.test -v .

# Channel-model-v2 correctness gate: the v2 golden checksums and the
# grid-vs-brute-force equivalence quickcheck, under the race detector.
check-v2:
	$(GO) test -race -run 'V2|Equivalence' ./internal/experiment ./internal/medium

# Fault-injection and resilient-runner gate, under the race detector
# (the seed watchdog crosses goroutines): the whole faults/atomicio
# suites, then the fault goldens, the churn re-synchronisation contract,
# the scheduler interrupt tests, and the sweep kill-resume round-trip.
faults:
	$(GO) test -race ./internal/faults ./internal/atomicio
	$(GO) test -race -run 'Fault|Churn|Down|Interrupt|RunGuarded|RunSweep|ResultJSON' \
		./internal/experiment ./internal/core ./internal/sim
	$(GO) run ./cmd/macsim -pm 80 -duration 2s -fer 0.2 \
		-metrics results/faults-metrics.json -diag-csv results/faults-diag-trail.csv

# Observability gate, under the race detector (the debug endpoint and
# shared sweep registries cross goroutines): the obs package suite, the
# frame timeline (an obs sink on the channel trace) with its golden
# and run tests, the pass-through goldens + crash-ring tests, the
# JSONL/explain byte-identity digest, then without the race detector
# the sink allocation guard (zero allocations per record once warm) and
# the obshot analyzer corpus, then the disabled-path wall-time guard
# against the BENCH.json baseline (min-of-5 RunRandom40V2 must stay
# within 2%).
obs:
	$(GO) test -race ./internal/obs ./internal/trace
	$(GO) test -race -run 'Observability|GuardDumpCarriesTraceTail|GuardNoTraceNoTail|RunTrace|Timeline|JSONLTraceDigest' ./internal/experiment
	$(GO) test -count=1 -run 'SinkEmitDoesNotAllocate' ./internal/obs
	$(GO) test -run 'Obshot' ./internal/lint
	DCFGUARD_OVERHEAD_GUARD=1 $(GO) test -count=1 -run 'DisabledObservabilityOverhead' -v .

# Sweep-daemon gate, under the race detector (workers and the HTTP mux
# cross goroutines): the serve package suite (which failures retry,
# breaker, fair scheduling, admission control, restart resume),
# the spec-equivalence pin, the daemon overhead guard (a submitted
# RunRandom40V2 cell must stay within 5% of the raw kernel — same env
# gate and machine-local caveat as the obs guard), then the kill -9
# smoke script: SIGKILL the real dcfserved mid-sweep, restart it, and
# byte-compare the artifacts against an uninterrupted run. Last, 10 s
# each of fuzzing the three spec boundaries: any spec ToScenario admits
# must run without panicking, any job spec the daemon admits must
# survive the spec.json round trip, and any command line macsim accepts
# must yield the spec -submit would send.
serve:
	$(GO) test -race ./internal/serve
	DCFGUARD_OVERHEAD_GUARD=1 $(GO) test -count=1 -run 'ServeGuardSpecMatchesBench|ServeOverheadGuard' -v .
	./scripts/serve-smoke.sh
	$(GO) test -run '^$$' -fuzz FuzzScenarioSpec -fuzztime 10s ./internal/experiment
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzFlagsToScenario -fuzztime 10s ./cmd/macsim

# Sharded-kernel gate, under the race detector (shard workers cross
# goroutines by design): the keyed-ordering and window/barrier unit
# tests, the v3 medium's serial-vs-2-shard listener test, the v3
# goldens, the shard-vs-serial golden pin, the shard-count
# invariance quickcheck, the sharded watchdog test, and the shardmail
# analyzer corpus.
shards:
	$(GO) test -race -run 'Keyed|FanKey|Window|NextTime|ShardGroup|NewShardGroup|V3|Shard' \
		./internal/sim ./internal/medium ./internal/experiment
	$(GO) test -run 'Shardmail' ./internal/lint

# The pre-merge gate (see README "Pre-merge gate"), cheapest stages
# first so failures surface in seconds: gofmt, vet and the determinism
# analyzers, then build, then the minutes-long race/bench stages. CI
# runs the same stages as one step each, in this order.
check: fmt vet lint build bench-module race idle-history world-build check-v2 faults obs serve shards bench bench-guard

clean:
	$(GO) clean ./...
