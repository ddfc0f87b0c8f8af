GO ?= go
FUZZTIME ?= 2s

.PHONY: all build test vet fmt-check bench-check bench-recover bench-smoke bench-t14 bench-recovery bench-t19 bench-json chaos-smoke fuzz-smoke loadgen-smoke cluster-smoke examples api-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any Go file in the tree, the bench module included, is not
# gofmt-formatted; the listing names the files to run gofmt -w on.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need gofmt -w:"; \
		echo "$$unformatted"; exit 1; \
	fi

# The benchmark (bench/) is a module of its own that imports internal
# packages, so the root build and tests never compile it: vet it and run its
# tests here, or an internal API change can break it unnoticed. Without
# -short they include the workload smoke, which runs every workload against
# a built querylearnd (~30 s on 2 vCPUs), so a run-time break shows here
# before the benchmark does.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full-size recover workload, untraced then traced (~2 min on 2 vCPUs):
# querylearnd boots on a 45k-session journal and clients finish recovered
# dialogues. Fails if either run exits non-zero (a build break, a crashed
# daemon, a failed or incorrect dialogue). bench-check's smoke run shrinks
# the corpus and the window; this runs the size the benchmark measures. Not
# part of ci: it takes minutes, and its timings only mean something across
# alternating runs (bash bench/run.sh -compare).
bench-recover:
	bash bench/run.sh --workload recover --seed 1 --seconds 15 --trace 0
	bash bench/run.sh --workload recover --seed 1 --seconds 15 --trace 1

# Quick sanity pass over the tentpole benchmarks (naive vs optimized
# evaluation core); catches gross perf/correctness regressions in seconds.
bench-smoke:
	$(GO) test -run '^$$' -bench 'NaiveVsFast' -benchtime 50ms -benchmem .
	$(GO) test -run '^$$' -bench 'EvalPairsGeo' -benchtime 50ms -benchmem ./internal/graphlearn
	$(GO) test -run '^$$' -bench '^BenchmarkEval$$' -benchtime 50ms -benchmem ./internal/graph

# Big-graph smoke: create and converge path sessions on 20k/100k-node graphs
# over /v1 (T14) — keeps the sparse version-space path exercised end to end.
bench-t14:
	$(GO) run ./cmd/benchrunner -only T14

# Recovery-format benchmark (T17): cold-open throughput of the binary
# journal plus allocs/op on POST answers — the storage codec's perf gate.
bench-recovery:
	$(GO) run ./cmd/benchrunner -only T17

# Planned-evaluation benchmark (T19): the greedy planning layer against the
# naive oracles on the hub-pair and high-arity semijoin workloads — the
# planner's perf gate.
bench-t19:
	$(GO) run ./cmd/benchrunner -only T19

# Capture the experiment tables as one step of the per-PR perf trajectory:
# make bench-json PR=14 writes BENCH_PR14.json. ONLY=T14,T19 restricts the
# capture to some tables.
bench-json:
	@test -n "$(PR)" || { echo "bench-json: set PR=<number> (writes BENCH_PR<number>.json)"; exit 1; }
	$(GO) run ./cmd/benchrunner -json $(if $(ONLY),-only $(ONLY)) > BENCH_PR$(PR).json.tmp
	mv BENCH_PR$(PR).json.tmp BENCH_PR$(PR).json

# Chaos smoke: one kill/recover scenario per registered store injection
# point (the fault-injection chaos suite) plus the degraded-mode /v1
# contract, under the race detector — the durability invariants in
# adversarial form, in a few seconds.
chaos-smoke:
	$(GO) test -race -run 'TestChaosEveryInjectionPoint' ./internal/store
	$(GO) test -race -run 'TestDegradedModeOverV1|TestAdmissionShedsWith429' ./internal/server

# Short fuzz pass over every wire-boundary decoder: the four task parsers
# (untrusted POST /sessions bodies), the journal replay (crash-truncated
# bytes, both formats), and the v2 codec (round-trip identity and decoder
# robustness). ~15s total at the default FUZZTIME; raise it to dig deeper.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseTwigTask -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParseJoinTask -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParsePathTask -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParseSchemaTask -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzStoreReplay -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzShipDecode -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzPlanEquivalence -fuzztime $(FUZZTIME) ./internal/plan

# Open-loop load smoke: a short fixed-seed Poisson run against an
# in-process daemon (cmd/loadgen self-host). Fails on any request error or
# a p99 over budget — the observability layer's end-to-end gate.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke -p99-budget 1s

# Real-process cluster gate: three querylearnd daemons on loopback ports,
# crowd dialogues driven through a NON-owner node (307 routing + SDK route
# cache on the hot path), the owner SIGKILLed mid-dialogue, and takeover
# asserted with zero lost acknowledged answers.
cluster-smoke:
	@mkdir -p bin
	$(GO) build -o bin/querylearnd ./cmd/querylearnd
	$(GO) run ./cmd/clustersmoke -bin bin/querylearnd

# Compile-and-run every example; they have no test files, so this is the
# only thing keeping them honest. crowdjoin and geopaths exit non-zero when a
# noise-free dialogue does not learn its goal, so this checks results too.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crowdjoin
	$(GO) run ./examples/geopaths
	$(GO) run ./examples/xmlshred

# Guard the public SDK surface: build the external consumer module (a
# separate go.mod importing only pkg/api + pkg/client, the way a third
# party would) and fail if pkg/ ever grows a dependency on internal/.
api-check:
	cd examples/apicheck && $(GO) build -o /dev/null .
	@leaks=$$($(GO) list -deps ./pkg/... | grep '^querylearn/internal' || true); \
	if [ -n "$$leaks" ]; then \
		echo "pkg/ must not depend on internal/ (the SDK would drag private types):"; \
		echo "$$leaks"; exit 1; \
	fi

ci: build vet fmt-check test bench-check bench-smoke bench-t14 bench-recovery bench-t19 chaos-smoke fuzz-smoke loadgen-smoke cluster-smoke examples api-check
