# Development entry points. `make ci` is what the CI workflow runs
# (TestCIWorkflowMatchesMakeCI keeps the two lists equal).

GO ?= go

.PHONY: tier1 benchtest vet endian lint race fuzz corpora crashtest examples bench benchsmoke scenarios scenariobench scalebench scalereport resumebench ci

# Tier-1 verify (see ROADMAP.md): must stay green on every commit.
# -shuffle=on randomizes test order so hidden inter-test coupling fails
# loudly instead of riding on declaration order.
tier1:
	$(GO) build ./...
	$(GO) test -shuffle=on ./...

# The end-to-end benchmark is a nested module (apf/bench, replace apf =>
# ../) that `./...` above does not reach: vet and test it here so a root
# API or format change that breaks it fails in CI, not at the next
# benchmark run. Offline by construction (no dependencies beyond apf).
benchtest:
	cd bench && export GOFLAGS=-mod=mod GOPROXY=off && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# The frame's byte ↔ float kernel (internal/checkpoint/floats.go) copies
# memory on little-endian hosts and runs a portable loop elsewhere; vet
# the packages that use it for a big-endian target so the portable path
# keeps compiling. Offline: a vet needs no toolchain download.
endian:
	GOARCH=s390x $(GO) vet ./internal/checkpoint ./internal/wire

# Static analysis beyond vet. CI installs the pinned staticcheck; locally
# the target degrades to a notice when the binary is absent so `make ci`
# does not require network access.
STATICCHECK ?= staticcheck
lint:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The engine pool, sharded aggregation, transport goroutines (including
# the per-session broadcast writers), telemetry registry, and chaos
# harness are the concurrency surface; run them under the race detector
# (this includes the chaos fault-injection suite, the concurrent /metrics
# scrape test, and the root package's engine round and hot-path pins).
race:
	$(GO) test -race . ./internal/fl/ ./internal/transport/ ./internal/chaos/ ./internal/wire/ ./internal/telemetry/

# Fuzz smoke: a short randomized pass over each decode target, and over
# the binary16 round trip whose idempotence sparse-q16 commit rounding
# relies on, on top of the checked-in corpus (go only runs one -fuzz
# target per invocation).
fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzSparseDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzServerDecode$$' -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzClientDecode$$' -fuzztime 10s
	$(GO) test ./internal/checkpoint/ -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 10s
	$(GO) test ./internal/fl/ -run '^$$' -fuzz '^FuzzParsePacked$$' -fuzztime 10s
	$(GO) test ./internal/fl/ -run '^$$' -fuzz '^FuzzExactVerdictsAgree$$' -fuzztime 10s
	$(GO) test ./internal/bitset/ -run '^$$' -fuzz '^FuzzFromWords$$' -fuzztime 10s
	$(GO) test ./internal/quantize/ -run '^$$' -fuzz '^FuzzHalfValue$$' -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzStabilityCheckMatchesReference$$' -fuzztime 10s

# Re-stamp the checked-in fixture-backed fuzz seeds (internal/wire and
# internal/transport testdata: valid-*, two-frame-stream, and the damaged
# seeds derived from them; internal/checkpoint's valid-manager and
# valid-snapshot-wal-stream) from the fixtures in
# internal/transport/fuzz_test.go. Run it after any wire or checkpoint
# format change — TestFuzzCorporaLive (tier-1) fails until the files match
# what the current format encodes, so no version byte or CRC is edited by
# hand. New seeds are added as fixtures there, not as files.
corpora:
	$(GO) test ./internal/transport/ -run '^TestFuzzCorporaLive$$' -update

# Crash drill: build the real apf-server binary, SIGKILL it mid-round via
# a scripted chaos fault, restart it against the same checkpoint
# directory, and require the final weights to be bit-identical to an
# uninterrupted run. Its two-tier arm builds apf-relay and requires a root
# over two relay processes to end every client on its flat twin's model.
crashtest:
	APF_CRASHTEST=1 $(GO) test ./internal/transport/ -run '^TestCrash(RealSIGKILL|TwoTierBinaries)$$' -v -timeout 8m

# Run every example program end to end (~45s on 2 cores); any non-zero
# exit fails the target.
examples:
	set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# The round-critical benchmarks, one list for bench and benchsmoke.
BENCHES = 'BenchmarkManagerRound$$|BenchmarkStabilityCheck$$|BenchmarkAggregate$$|BenchmarkPartialFold$$|BenchmarkPartialMerge$$|BenchmarkWireDense$$|BenchmarkCheckpointF64s$$|BenchmarkFrameRead$$|BenchmarkAggregatorAdd$$|BenchmarkTrainStep$$|BenchmarkConvStep$$|BenchmarkEngineRound$$'

# Quick look at the round-critical benchmarks while working on them. Not a
# tracked number: timings are measured end to end and per layer by bench/
# (`bash bench/run.sh --trace 1`); what these paths must never do (allocate
# at steady state) is pinned in tier-1.
bench:
	$(GO) test -run '^$$' -bench $(BENCHES) -benchmem .

# Every benchmark of the bench set, run once (~5-10s on 2 cores): a change
# that breaks one, which performance changes quote, fails here.
benchsmoke:
	$(GO) test -run '^$$' -bench $(BENCHES) -benchtime 1x -benchmem .

# Scenario smoke: the CI subset of the adversary × network × data matrix,
# race-enabled, over the real TCP transport. The run enforces the
# detection gates (scale/noise TPR = 1, FPR = 0, honest-cell accuracy
# floor) and fails on any violation. The smoke report is untracked; the
# tracked full-matrix report is regenerated by scenariobench.
scenarios:
	$(GO) run -race ./cmd/apfbench -scenarios BENCH_scenarios_smoke.json -matrix smoke

# Regenerate the tracked full-matrix scenario report (60 matrix cells +
# 9 defense-ablation cells, 2 trials; same-seed deterministic in every
# scored quantity — see EXPERIMENTS.md for the one wire-byte caveat), then
# fail if it differs from the git index: the report has no
# machine-dependent fields, so a change that moves a number must `git add`
# the regenerated report.
scenariobench:
	$(GO) run ./cmd/apfbench -scenarios BENCH_scenarios.json -matrix full -trials 2
	git diff --exit-code -- BENCH_scenarios.json

# Scale smoke: 100k simulated clients through the real two-tier
# aggregation and wire-codec paths (discrete-event swarm, no sockets),
# race-enabled. The test enforces the flatness gate (root per-round work
# within 1.5x across 10x client growth) and the flat-oracle bitwise check.
scalebench:
	APF_SCALEBENCH=1 $(GO) test -race ./internal/swarm/ -run '^TestScaleSmoke100k$$' -v

# Regenerate the tracked two-tier scaling report at 100k and 1M simulated
# clients. The run itself enforces the flatness gate and the flat-oracle
# bit-identity at both scales. Everything but the CPU and wall-clock
# timings and the machine header is exact, so the regenerated report must
# equal the tracked one outside those lines: a change that moves a count
# fails here until the report is committed with it.
scalereport:
	$(GO) run ./cmd/apfbench -scaling BENCH_scale.json
	git diff --exit-code -I'cpu' -I'"wall_seconds"' -I'"go_version"' -I'"gomaxprocs"' -- BENCH_scale.json

# Regenerate the tracked resume-cost report: end-to-end catch-up over
# loopback for a client absent past the aggregate-history window. The
# run itself enforces the cost gates — snapshot O(dim) flat across a 20x
# absence spread, sketch reconciliation under the snapshot's cost when
# the freezing-mask diff is small. The byte counts are exact, so the
# regenerated report must equal the tracked one outside its machine
# header: a change that moves them fails here until the report is
# committed with it.
resumebench:
	$(GO) run ./cmd/apfbench -resume BENCH_resume.json
	git diff --exit-code -I'"go_version"' -I'"gomaxprocs"' -- BENCH_resume.json

ci: tier1 benchtest benchsmoke vet endian lint race fuzz crashtest examples scenarios scalebench scenariobench scalereport resumebench
