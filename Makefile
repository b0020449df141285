GO ?= go

# Packages whose hot paths share mutable buffers across goroutines — or, for
# the codecs, share the engine's memo of inverses and plans; these run under
# the race detector in addition to the normal suite.
RACE_PKGS = ./internal/codeplan ./internal/workpool ./internal/matrix ./internal/lincode ./internal/reedsolomon ./internal/msr ./internal/lrc ./internal/mbr ./internal/carousel ./internal/blockserver ./internal/faultnet ./internal/frame ./internal/dfs ./internal/retry ./internal/obs ./internal/bufpool ./internal/stream ./internal/master ./internal/stripecache ./internal/workload

# Packages on the fault-tolerant block path: run twice under the race
# detector to shake out order-dependent leaks and redial races.
FAULT_PKGS = ./internal/blockserver ./internal/dfs ./internal/faultnet

.PHONY: check fmt vet build test race race-tiers faults master writepath recover readpath fuzz series sim bench bench-gate bench-sweep obs swarm bench-swarm

check: fmt vet build test race

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Re-run the kernel-heavy race packages with the GFNI tier disabled, so the
# AVX2 and scalar rungs of the gf256 tier ladder get the same race coverage
# the default (fastest) tier does, then every codec test on the scalar
# rung alone (MulSum's MulSlice/MulAddSlice reference).
race-tiers:
	GF256_DISABLE=gfni $(GO) test -race ./internal/gf256 ./internal/lincode ./internal/carousel ./internal/codeplan
	GF256_DISABLE=all $(GO) test ./internal/gf256 ./internal/codeplan ./internal/lincode ./internal/carousel

# Exercise the fault matrix: injected stragglers, partitions, corruption,
# and crash-mid-read over real TCP, twice, race-enabled.
faults:
	$(GO) test -race -count=2 $(FAULT_PKGS)

# The self-healing control plane: membership/journal/scheduler unit
# tests, the kill-a-node, restart-resume and per-task bandwidth-budget
# e2e suites, the control-wire suite (TestControlWire: corrupt request
# and reply, oversize body, unknown route, a refusal keeps the
# connection, one client under concurrent callers), and the short-mode
# chaos test (faultnet-partitioned heartbeats walk a member
# alive -> suspect -> dead -> back with no spurious rebuild), all
# race-enabled over real TCP.
master:
	$(GO) test -race -count=2 ./internal/master
	$(GO) test -race -short -count=1 -run 'TestChaosHeartbeatPartition|TestControlWire' ./internal/master

# The pooled write and rebuild paths: the codec's dirty-destination
# invariants (Into forms byte-identical to the allocating ones, every plan
# output opened by an overwrite) and the store's buffer-lifetime rule
# (concurrent WriteFiles under delay and a mid-Put cut never recycle a
# block a Put can still read), race-enabled and repeated.
writepath:
	$(GO) test -race -count=2 -run 'TestInto|TestEveryOutputOpensWithAnOverwrite' ./internal/carousel ./internal/codeplan
	$(GO) test -race -count=10 -run 'TestWriteFilePooledBlocksOutliveTheirPuts' ./internal/blockserver

# The one repair engine, repeated under the race detector: batched helper
# exchanges (one per helper per batch round), per-name verdicts striking
# one stripe, spares, unhedged repair of a slow cluster, the throttle, and
# Repair, Scrub and RecoverServer over it; then the master's self-healing
# and per-task recovery budget, which drive RecoverServer.
recover:
	$(GO) test -race -count=5 -run 'Recover|Repair|Scrub|SlowEverywhereIsRepaired' ./internal/blockserver
	$(GO) test -race -count=5 -run 'Recover|SelfHealing' ./internal/master

# The one read path, repeated under the race detector: batched reads (one
# range exchange per source per batch round, counted at the servers),
# per-name verdicts striking one stripe, a slow-everywhere cluster read
# unhedged, a black-holed source costing one hedge per batch, the one read
# plan on three executors, degraded reads and their trace, the stripe
# cache's batches of one, and server spans stitched under the batch's fetch.
readpath:
	$(GO) test -race -count=5 -run 'ReadFile|Strikes|SlowEverywhereIsRead|OnePlan|Degraded|StoreCache|Blackholed|TraceStitching' ./internal/blockserver

# Fuzz the three decoders of the one record frame (internal/frame), 10 s
# each, from the seed corpora under each package's testdata/fuzz: the bare
# header reader, the block server's request loop over net.Pipe (the block
# map changes only on a put whose header and payload verify; the range and
# chunk requests' name lists are among its seeds), and the
# master's journal replay (refuse and leave the file alone, or keep a
# prefix that replays to the same state).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadHeader$$' -fuzztime 10s ./internal/frame
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime 10s ./internal/blockserver
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s ./internal/master

# The Fig. 6-8 series loop, short: the four parameter points of
# bench.NewFamily are built and encoded (6a), and a real repair's helper
# uploads are checked against the analytic traffic (7 panics on a mismatch).
series:
	$(GO) run ./cmd/codingbench -fig 6a -ks 2,4 -mb 1 -reps 1
	$(GO) run ./cmd/codingbench -fig 7 -ks 2,4

# The simulator figures run on simulated time, so Figs. 9 and 10 and the
# degraded-job and tail extensions print the same bytes on every host:
# build clusterbench once, run the four, and diff them against the
# committed transcript. Re-take results/sim_figures.txt with the same loop
# only after a change that is meant to move a figure. Fig. 11 stays out:
# its one-failure column times the host's decoder.
sim:
	mkdir -p .bench_build
	$(GO) build -o .bench_build/clusterbench ./cmd/clusterbench
	for f in 9 10 deg tail; do .bench_build/clusterbench -fig $$f || exit 1; done > .bench_build/sim_figures.txt
	diff results/sim_figures.txt .bench_build/sim_figures.txt

# Regenerate the coding microbenchmarks and the JSON snapshot.
bench:
	$(GO) run ./cmd/codingbench -json

# The gated benchmark is its own module, so `go test ./...` never reaches
# it: run its unit tests, then 2-second untraced runs of the four
# large-file workloads through the entry point BENCHMARK.json names (each
# run checks every byte it moves and exits non-zero on a mismatch), and
# compare them with the committed baseline. The spec gates only the counted
# metrics — wire and allocated bytes per user byte, which repeat to the
# fourth digit on any host even at smoke length; timed metrics spread too
# far in 2 s to gate. read_degraded joined the gate when its counted
# metrics became counts (PR 22: the planned degraded read fetches exactly
# one byte per byte returned; the any-k race it replaced fetched 2.4 give
# or take the timing of a cancel). -compare exits 1 on a regression and 2
# when a workload is missing from either file. After a change that is
# meant to move a counted metric, re-take that workload's row of
# results/bench_gate_baseline.jsonl with the same run.
bench-gate:
	cd benchmark && $(GO) test .
	rm -f .bench_build/gate.jsonl
	for w in read_large write_large read_degraded recover_node; do \
		bash benchmark/run.sh --workload $$w --seconds 2 --trace 0 --results .bench_build/gate.jsonl || exit 1; \
	done
	.bench_build/carousel-benchmark -compare -spec scripts/bench_gate_spec.json results/bench_gate_baseline.jsonl .bench_build/gate.jsonl

# The multi-core scaling sweep of the coding kernels (Fig. 6): re-run the
# coding microbenchmarks at GOMAXPROCS 1, 2, 4, and 8, stamping each JSON
# result row with its gomaxprocs axis. The live store's procs axis is
# `GOMAXPROCS=N bash benchmark/run.sh ...`; the host stamp records it.
bench-sweep:
	$(GO) run ./cmd/codingbench -json -maxprocs 1,2,4,8

# The hot-read stripe cache: the S3-FIFO admission and singleflight unit
# suites plus the store-level cache e2es (warm-read zero dials, error
# fan-out, waiter cancellation, invalidation races), race-enabled, then a
# short open-loop Zipf swarm A/B (cache-off vs cache-on, no JSON refresh).
swarm:
	$(GO) test -race -count=2 ./internal/stripecache ./internal/workload
	$(GO) test -race -run 'TestStoreCache' ./internal/blockserver
	$(GO) run ./cmd/clusterbench -fig swarm -swarmdur 1s -swarmobjs 128

# The swarm A/B at full length, rewriting BENCH_clusterbench.json:
# open-loop Poisson arrivals at 3x the measured cache-off capacity,
# Zipf(1.1) over 256 objects, hundreds of clients, cache-off vs cache-on
# plus both again under injected stragglers.
bench-swarm:
	$(GO) run ./cmd/clusterbench -fig swarm -json

# The observability layer: the family manifest (DESIGN.md §8 table ==
# what the sources register == what obscheck greps), metric/span
# correctness under the race detector, the degraded-read, per-server tx
# and cross-node trace-stitching e2es, the master's health roll-up
# suites, then a live scrape of both a standalone 3-node cluster and a
# master-managed one.
obs:
	$(GO) test -run 'TestMetricManifest' .
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestDegradedReadObservability|TestReadStatsCountsAllCorruptVerdicts|TestObsSummaryTxIsPerServer|TestCrossNodeTraceStitching' ./internal/blockserver
	$(GO) test -race -run 'TestBeatHealthRollup|TestClusterRollupGauges' ./internal/master
	./scripts/obscheck.sh
