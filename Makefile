GO ?= go

.PHONY: check vet vet-custom staticcheck cover-floor build test race race-sharded allocs fuzz-smoke bench bench-json json loc pairs

## check: the pre-merge gate — vet (stock + staticcheck + the repo's
## own transput-vet analyzers), build, full tests, the race detector
## over the concurrency-heavy packages (the striped counters of
## internal/metrics among them), and the coverage floor.  CI and
## contributors run this before merging.
check: vet vet-custom build test race cover-floor

vet: staticcheck
	$(GO) vet ./...

## staticcheck: honnef.co baseline (configured by staticcheck.conf).
## Skipped with a notice when the binary is not installed — the stock
## vet + transput-vet gate still runs everywhere.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

## vet-custom: the repo's own go/analysis-style suite.  Proves slab
## ownership (every Alloc/Retain is released on every path), discipline
## purity (readonly files never reach the push side and vice versa),
## fusion purity (fusable-tagged plumbing never reaches a port or a
## kernel invocation), pool hygiene (no use-after-Put, no missing Put),
## metrics-table completeness, goroutine termination, and one wait-for
## graph for cond-wait discipline, lock order (cycles of any length)
## and mixed mutex/channel/cond cycles, and — via the protomodel
## analyzer — credit-protocol liveness by exhaustive model checking.
## Atomics are left to the types: every shared word is a typed atomic,
## and `go vet` (the `vet` target) reports a copied one.
## The self-test first proves the model checker catches its own seeded
## mutants, so the zero-finding run that follows actually means
## something.  Zero findings is a merge requirement.
vet-custom:
	$(GO) run ./cmd/transput-vet -protomodel-selftest -protomodel-window 3
	$(GO) run ./cmd/transput-vet

## cover-floor: statement-coverage floor for the packages whose
## correctness arguments lean on tests — the wire codec/slab layer,
## the analyzer suite itself, the real-wire transport (bridge, remote
## sources, socket links) and the striped table layer.
cover-floor:
	@./scripts/cover_floor.sh internal/wire 70
	@./scripts/cover_floor.sh internal/analysis 70
	@./scripts/cover_floor.sh internal/transport 70
	@./scripts/cover_floor.sh internal/stripemap 70

## loc: non-test, non-testdata Go lines per package and in total — the
## number the ROADMAP's "least code" items are judged by.  A PR that
## claims a simplification reports this next to its benchmark medians;
## `scripts/loc.sh --against REF` prints the change since REF.
loc:
	@./scripts/loc.sh

## pairs: the paired parent/change comparison a PR's benchmark table is
## made of — `make pairs PARENT=<commit> WORKLOAD=<name> [PAIRS=10]
## [SECONDS=12]` runs the harness command in an export of PARENT and in
## the working tree, alternating, and prints per metric the per-pair
## ratios, their median and quartiles, and the sign count
## (scripts/pairs.sh; it also takes two directories).
PAIRS ?= 10
SECONDS ?= 12
pairs:
	@./scripts/pairs.sh --against $(PARENT) $(WORKLOAD) $(PAIRS) $(SECONDS)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/kernel/... ./internal/transput/... ./internal/transport/... ./internal/stripemap/... ./internal/wire/... ./internal/metrics/...

## allocs: the allocation pins (the batch-1 hops at zero, in one process
## and over a socket, the batch-1 chain's zero a datum, the bridge's
## round trip and remote batch at their boxes, and a bulk frame whose
## items are detached in place) three times over.  Under -race, where sync.Pool drops Puts, they skip or loosen,
## so `test` is otherwise the only strict run they get, and it is one.
allocs:
	$(GO) test -run 'Allocs|AllocFree' -count=3 ./internal/wire ./internal/transput ./internal/transport

## fuzz-smoke: the decoders that read what a peer sends, and the slab
## registry they hand views out of, fuzzed past their seed corpus for
## 10 s each — the bridge's two records (both decode paths, pooled
## records), the frame reader over torn reads, the codec, and the slab's
## handle counts and Detach's two outcomes against a shadow model.  One
## -fuzz target per go test invocation, as go requires.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBridgeRecords$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSlabViews$$' -fuzztime 10s ./internal/wire

## race-sharded: a short, focused race run over the parallel engine
## (sharded rows, the one active engine's window and its gate in both
## directions, merge, redirect), the fusion
## compiler (fused groups, fused aborts, fused pools), the writers'
## shared copy arenas under concurrent Puts, and bodies holding 16 KiB
## items handed over in place off real sockets — the subset CI runs on
## every push in addition to the full gate.
race-sharded:
	$(GO) test -race -run 'TestSharded|TestChained|TestShard|TestWindowed|TestWindowOneRunsOnTheCaller|TestWindowGateDual|TestTransferReplyBacklog|TestActivePortTeardownMidWindow|TestPassiveBufferAgainstFIFOModel|TestRedirectShardedWindowed|TestPusherRedirectUnderWindow|TestPipelinePreservesArbitraryData|TestFailedBuildLeavesNothingBound|TestPipelineInventoryGolden|TestFused|TestFusion|TestRedirectAcrossFusedBoundary|TestPoolHint|TestPutArenaStorm|TestBulkItemsHeldAcrossSockets' ./internal/transput/ ./internal/kernel/

## bench: the per-hop micro-benchmarks the fast-path work is gated on,
## the pipeline builder's build + destroy cost, the frame reader's
## item-size sweep across wire.SpliceCutoff, the
## bridge's round trip, plus the parallel engine's end-to-end throughput
## benchmark.
bench:
	$(GO) test -run XXX -bench 'BenchmarkTransferHop|BenchmarkDeliverHop|BenchmarkBuildPipeline|BenchmarkInvoke|BenchmarkCallerInvoke|BenchmarkCounterParallel|BenchmarkReadItems|BenchmarkBridgeInvoke' -benchmem ./internal/kernel/ ./internal/transput/ ./internal/metrics/ ./internal/wire/ ./internal/transport/
	$(GO) test -run XXX -bench BenchmarkPipelineThroughput -benchtime 500ms ./internal/transput/

## bench-json: regenerate the committed measurement files —
## BENCH_kernel.json (Figure 1/2 pipeline costs), BENCH_transput.json
## (the parallel engine's shards × window grid), BENCH_codec.json
## (gob vs wire codec costs and the fixed vs adaptive batching grid),
## BENCH_fusion.json (the stage-fusion compiler's fused vs unfused
## grid), BENCH_gateway.json (the ingress-gateway control-plane
## run: admission, idle footprint, steady state, churn) and
## BENCH_transport.json (the real-wire grid: netsim vs Unix-domain
## vs TCP loopback latency and throughput).
bench-json:
	$(GO) run ./cmd/transput-bench -json

## json: quick variant of bench-json (CI-sized workloads).
json:
	$(GO) run ./cmd/transput-bench -json -quick
