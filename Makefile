GO ?= go

.PHONY: check vet vet-custom staticcheck cover-floor build test race race-sharded allocs fuzz-smoke bench bench-json json loc pairs pairs-aa examples

## check: the pre-merge gate — vet (gofmt + stock + staticcheck + the
## protomodel self-test), build, full tests (the repo's own analyzer
## suite among them, at zero findings), the race detector
## over the concurrency-heavy packages (the striped counters of
## internal/metrics and internal/spec's cross-process conformance run
## among them), and the coverage floor.  CI and
## contributors run this before merging.
check: vet vet-custom build test race cover-floor

## vet: gofmt (any file it would rewrite fails the gate), stock vet and
## staticcheck.
vet: staticcheck
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi
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

## vet-custom: the protomodel self-test — the model checker must catch
## its own seeded mutants before its clean verdict counts.  The analyzer
## suite itself (signals under their mutex, lock order and wait cycles,
## protomodel's credit-protocol liveness) runs at zero findings in
## `test`, as internal/analysis's TestModuleIsClean; a finding is fixed,
## never annotated.  What a type, the import graph or a runtime check
## holds gets no analyzer: which transput face may reach which (the
## package layout; transput's TestPackageLayout), typed atomics (`vet`),
## wire.Pool's race build (`race`), the slab leak audit, and the
## teardown tests' goroutine and fd baselines, `quiesce.Baseline` and
## `quiesce.FDs`, and the cond-wait loops' own tests (`test`).
vet-custom:
	$(GO) run ./cmd/transput-vet -protomodel-selftest -protomodel-window 3

## cover-floor: statement-coverage floor for the packages whose
## correctness arguments lean on tests — the wire codec/slab layer,
## the analyzer suite itself, the real-wire transport (bridge, remote
## streams), the socket links and their coalescer, the striped
## table layer, transput (the walk and the stage Eject) with its core
## and its two faces, spec, whose probes gate the stage Eject, and the
## shell, whose one source table local pipelines and -serve share.
cover-floor:
	@./scripts/cover_floor.sh internal/wire 70
	@./scripts/cover_floor.sh internal/analysis 70
	@./scripts/cover_floor.sh internal/transport 70
	@./scripts/cover_floor.sh internal/netsim 70
	@./scripts/cover_floor.sh internal/stripemap 70
	@./scripts/cover_floor.sh internal/transput 70
	@./scripts/cover_floor.sh internal/transput/internal/core 70
	@./scripts/cover_floor.sh internal/transput/internal/pull 70
	@./scripts/cover_floor.sh internal/transput/internal/push 70
	@./scripts/cover_floor.sh internal/spec 70
	@./scripts/cover_floor.sh internal/shell 70

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

## pairs-aa: the A/A control for a pairs claim — `make pairs-aa
## PARENT=<commit> WORKLOAD=<name>` runs the same comparison over two
## `git archive` exports of PARENT, each in its own directory, so a
## claim on a row that moves with the checkout (the wire rows) can carry
## the spread two checkouts of one commit show.
pairs-aa:
	@./scripts/pairs.sh --aa $(PARENT) $(WORKLOAD) $(PAIRS) $(SECONDS)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/kernel/... ./internal/transput/... ./internal/netsim/... ./internal/transport/... ./internal/shell/... ./internal/spec/... ./internal/stripemap/... ./internal/wire/... ./internal/metrics/...

## allocs: the allocation pins (the kernel's warm invocation, inline and
## queued, and its create/destroy churn, a histogram's record, the batch-1 hops at zero, in one
## process and over a socket, the batch-1 chain's zero a datum, the bridge's
## round trip at its boxes, a bulk frame whose
## items are detached in place, the slab's chunk index listing and
## unlisting at zero, and a channel's declare/retire churn at its
## handle) and the footprint pins (an idle channel's heap bytes — just
## declared, churned and drained — and the stripemap's entries a live
## key under Delete/Store churn) three times over.
## Under -race, where sync.Pool drops Puts, they skip or loosen,
## so `test` is otherwise the only strict run they get, and it is one.
allocs:
	$(GO) test -run 'Allocs|AllocFree|Footprint' -count=3 ./internal/wire ./internal/kernel ./internal/transput/... ./internal/netsim ./internal/transport ./internal/stripemap ./internal/metrics

## fuzz-smoke: the decoders that read what a peer sends, and the slab
## registry they hand views out of, fuzzed past their seed corpus for
## 10 s each — every registered protocol record (both decode paths,
## pooled records), the frame reader over torn reads, vectored frames
## over fuzzed item lengths on both sides of wire.SpliceCutoff, the
## codec, the slab's handle counts and Detach's two outcomes against
## a shadow model, and the arena's reuse of the large copies handed back
## to it against a shadow of its spares.
## One -fuzz target per go test invocation, as go requires.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRecords$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzVectoredFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSlabViews$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzArenaReclaim$$' -fuzztime 10s ./internal/wire

## race-sharded: a short, focused race run over the parallel engine
## (sharded rows, the one active engine's window, its gate and its turn
## in both directions, completions in reverse, merge, redirect), the fusion
## compiler (fused groups, fused aborts, fused bodies reading on
## goroutines they start), the writers' shared copy arenas under
## concurrent Puts, bodies holding 16 KiB
## items handed over in place off real sockets, stale channel
## handles and capability-cache entries racing the reuse of their
## records, records' first waits (which make their conds) racing
## every broadcast, a port's channel set against its model under
## concurrent Declare/Retire/Lookup/Adverts, one Caller's own Call and Invocation shared by
## eight invokers, message ids drawn from Callers' blocks beside
## every other call's, and graphs through the one walk (fan-in, fan-out,
## a sharded diamond, Figure 4 and -check's graph rows; an outlet drained
## by a reader attached after Start, and a never-pulled lazy body run once
## by Destroy: TestGraphOutlet, TestGraphDestroyRunsUnpulledLazyBody), and the walk's
## landing zone for a push window (TestWindowedInputCapacity,
## TestWindowedDeliverGrantOpensTheWindow) with the producer parked once
## its window is out (TestWindowedPusherParksAtTheWindow) — the subset CI
## runs on every push in addition to the full gate.
race-sharded:
	$(GO) test -race -run 'TestSharded|TestChained|TestShard|TestWindowed|TestWindowOneRunsOnTheCaller|TestWindowGateDual|TestTransferReplyBacklog|TestActivePortTeardownMidWindow|TestPassiveBufferAgainstFIFOModel|TestRedirectShardedWindowed|TestPusherRedirectUnderWindow|TestRedirectKeepsEveryArrivedBatch|TestRedirectWithPrefetchKeepsArrivedData|TestRedirectMidStream|TestReverseCompletionDual|TestSinkLaneHoldsBackByOffset|TestPipelinePreservesArbitraryData|TestFailedBuildLeavesNothingBound|TestPipelineInventoryGolden|TestFused|TestFusion|TestRedirectAcrossFusedBoundary|TestPutArenaStorm|TestBulkItemsHeldAcrossSockets|TestStaleHandleStorm|TestStaleHandleIdentity|TestCapCacheStormOnOneSlot|TestFirstWaitStorm|TestRegistryStorm|TestRegistryAgainstModel|TestCallerSharedByEightInvokers|TestMessageIDsUniqueAcrossCallers|TestGraph' ./internal/transput/... ./internal/kernel/ ./internal/experiments/

## examples: `go run` on every examples/* main, in turn; the first
## non-zero exit fails the target.  redirection and unixboot, whose
## sources are one-node graphs with an outlet, are run nowhere else.
examples:
	@for d in examples/*/; do \
		[ -f $$d/main.go ] || continue; \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

## bench: the per-hop micro-benchmarks the fast-path work is gated on,
## the pipeline builder's build + destroy cost, the frame reader's
## item-size sweep across wire.SpliceCutoff, the slab registry's
## lookup (a view's lifecycle, and the miss a heap slice pays with 0 and
## 16 chunks listed), the
## bridge's round trip, plus the parallel engine's end-to-end throughput
## benchmark.
bench:
	$(GO) test -run XXX -bench 'BenchmarkTransferHop|BenchmarkDeliverHop|BenchmarkBuildPipeline|BenchmarkInvoke|BenchmarkCallerInvoke|BenchmarkCounterParallel|BenchmarkReadItems|BenchmarkViewLifecycle|BenchmarkBridgeInvoke' -benchmem ./internal/kernel/ ./internal/transput/... ./internal/metrics/ ./internal/wire/ ./internal/transport/
	$(GO) test -run XXX -bench BenchmarkPipelineThroughput -benchtime 500ms ./internal/transput/...

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
