# Developer entry points. `make check` is the gate CI runs.

GO ?= go

.PHONY: check build vet test race bench bench-smoke profile experiments fuzz cover fmt perfbench-check

check: fmt build vet race

# gofmt gate: fails listing every file gofmt would rewrite.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep -> BENCH_<n>.json at the next free index, with an
# informational diff against the newest committed baseline. See
# scripts/bench.sh for the BENCH_* environment knobs.
bench:
	./scripts/bench.sh

# The CI regression gate: the guarded figure + hot-path benchmarks only,
# compared strictly (>20% ns/op or allocs/op fails) against the newest
# committed BENCH_<n>.json.
bench-smoke:
	BENCH_PATTERN='Fig19$$|Fig20$$|ExtScale$$|EngineScheduleFire|EngineEveryCancelChurn|EngineHold|NetworkSendSteadyState|AccountingSweep|ShardedBarrier|AuditSweep|PartitionCells|NetworkAccount|CohortRun|NewDataset|Infer$$|Resolve$$|WriteJSONL$$|Generate$$' \
	BENCH_TIME=2x BENCH_COUNT=3 BENCH_STRICT=1 \
	BENCH_GUARD='Fig19,Fig20,ExtScale' \
	./scripts/bench.sh $(CURDIR)/.bench-smoke.json
	rm -f $(CURDIR)/.bench-smoke.json

# The repository benchmark lives in its own module (perfbench/), which the
# root `go build/vet/test ./...` skip: vet and test it against the current
# internal/ packages so an API change cannot break it unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# CPU + heap profiles for the Figure 19 sweep (the engine hot path), ready
# for `go tool pprof`.
profile:
	$(GO) run ./cmd/experiments -scale small -only fig19 \
		-cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "profile: wrote cpu.pprof and mem.pprof; inspect with:"
	@echo "  go tool pprof -top cpu.pprof"
	@echo "  go tool pprof -top -sample_index=alloc_objects mem.pprof"

# Fast full regeneration pass; see EXPERIMENTS.md for the paper-scale run.
experiments:
	$(GO) run ./cmd/experiments -scale small -metrics

# Short fuzz smoke over the engine's event order (lanes declared against
# heap-only), the sharded barrier's delivery order (against a sorted
# (at, src, seq) merge), the tree fail/recover repair, the fault-scenario compiler, the
# population-spec, federation-spec and scenario-plan parsers, the JSONL
# reader and its canonical poll-line scanner (differentially against
# encoding/json), the JSONL writer's hand-written poll lines (differentially
# against encoding/json), the access-log parser and its canonical poll-line scanner
# (differentially against its tokenizing path), the whole trace-import
# path, and the DNS plane's ranking walk (against a per-lookup sort) (one
# -fuzz pattern per package run, as go test requires; patterns are anchored
# where a package holds several fuzz targets).
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz 'FuzzEngineOrder$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz 'FuzzShardedFlushOrder$$' -fuzztime 10s
	$(GO) test ./internal/overlay -run '^$$' -fuzz FuzzTreeFailRecover -fuzztime 10s
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzCompile -fuzztime 10s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzParsePopulation -fuzztime 10s
	$(GO) test ./internal/federation -run '^$$' -fuzz FuzzParseFederation -fuzztime 10s
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParsePlan -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzRead$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzReadPollLine$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzWritePollLine$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzParseAccessLog$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzScanLogPollLine$$' -fuzztime 10s
	$(GO) test ./internal/traceimport -run '^$$' -fuzz 'FuzzImportTrace$$' -fuzztime 10s
	$(GO) test ./internal/dns -run '^$$' -fuzz FuzzResolve -fuzztime 10s

# Coverage ratchet: per-package line-coverage floors on the packages the
# cohort user model touches. See scripts/coverage.sh for the floor table.
cover:
	./scripts/coverage.sh
