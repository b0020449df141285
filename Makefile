GO ?= go

# Packages whose hot paths share mutable buffers across goroutines — or, for
# the codecs, share the engine's memo of inverses and plans; these run under
# the race detector in addition to the normal suite.
RACE_PKGS = ./internal/codeplan ./internal/workpool ./internal/matrix ./internal/lincode ./internal/reedsolomon ./internal/msr ./internal/lrc ./internal/carousel ./internal/blockserver ./internal/faultnet ./internal/frame ./internal/dfs ./internal/retry ./internal/obs ./internal/bufpool ./internal/master ./internal/stripecache ./internal/workload

# Packages on the fault-tolerant block path: run twice under the race
# detector to shake out order-dependent leaks and redial races.
FAULT_PKGS = ./internal/blockserver ./internal/dfs ./internal/faultnet

.PHONY: check fmt vet build test race race-tiers faults master writepath recover readpath fuzz series sim examples bench bench-gate bench-sweep obs swarm bench-swarm

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
# rung alone (MulSum's MulSlice/MulAddSlice reference). GF256_DISABLE is
# read at package init, which go test's result cache does not key on, so
# both lines run with -count=1: a cached result may be another tier's.
# Then, on the AVX2 and the portable rungs, the one-stripe read from k
# whole blocks, whose solve runs on every read, and its re-plans.
race-tiers:
	GF256_DISABLE=gfni $(GO) test -race -count=1 ./internal/gf256 ./internal/lincode ./internal/carousel ./internal/codeplan
	GF256_DISABLE=all $(GO) test -count=1 ./internal/gf256 ./internal/codeplan ./internal/lincode ./internal/carousel
	GF256_DISABLE=gfni $(GO) test -race -count=1 -run 'OneStripeRead|WholePlan|PatchSource' ./internal/blockserver
	GF256_DISABLE=avx2,gfni $(GO) test -race -count=1 -run 'OneStripeRead|WholePlan|PatchSource' ./internal/blockserver

# Exercise the fault matrix: injected stragglers, partitions, corruption,
# and crash-mid-read over real TCP, twice, race-enabled.
faults:
	$(GO) test -race -count=2 $(FAULT_PKGS)

# The self-healing control plane: membership/journal/scheduler unit
# tests, the kill-a-node, restart-resume and per-task bandwidth-budget
# e2e suites, the one pool every task item runs over (a recovery of ten
# files onto one spare, one item after another, dials it once), the
# control-wire suite (TestControlWire: corrupt request
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
# output opened by an overwrite), the store's buffer-lifetime rule
# (concurrent WriteFiles under delay and a cut inside a batched put never
# recycle a stripe slab a put can still read), the put's all-or-nothing
# rule (a put cut mid-payload stores nothing until its retry lands) and
# the server's recycling rule (a block overwritten or deleted while range,
# chunk and verify answers read it keeps its buffer until the last of them
# has left), race-enabled and repeated; then the one buffer lease both the
# server and the stripe cache use (bufpool.Hold over bufpool.Spares), ten
# times: readers pin, copy and check a buffer's fill while its owner
# retires it and a writer takes and poisons it. That test checks bytes, so
# it needs no race detector to see a buffer handed on while pinned.
writepath:
	$(GO) test -race -count=2 -run 'TestInto|TestEveryOutputOpensWithAnOverwrite' ./internal/carousel ./internal/codeplan
	$(GO) test -race -count=10 -run 'TestWriteFilePooledBlocksOutliveTheirPuts|TestPutIsAllOrNothing|TestAnswersPinTheirBlocks|TestHeldAnswerKeepsItsBlock' ./internal/blockserver
	$(GO) test -count=10 -run '^TestLeaseChurn$$' ./internal/bufpool

# The one repair engine, repeated under the race detector: one rebuild
# exchange per batch from the coordinator to the newcomer, which runs the
# batch over the one pool it keeps for its life, dialing each helper once
# whatever the request's order and hedge (batched helper exchanges, one per helper per batch round,
# per-name verdicts striking one stripe, spares, unhedged repair of a slow
# cluster) and stores what it rebuilds; the newcomer or a helper killed
# mid-pass, a black-holed newcomer, the throttle, and Repair, Scrub and
# RecoverServer over it; Scrub's one verify exchange per server per batch
# and its torn stripes, reported and left alone; a store over a borrowed
# pool, which leaves it open when it closes; then the master's
# self-healing, per-task recovery budget and one pool (a task's items,
# one after another, dial their newcomer once), which drive
# RecoverServer.
recover:
	$(GO) test -race -count=5 -run 'Recover|Repair|Scrub|SlowEverywhereIsRepaired' ./internal/blockserver
	$(GO) test -race -count=5 -run 'Recover|SelfHealing' ./internal/master

# The one read path, repeated under the race detector: batched reads (one
# range exchange per source per batch round, counted at the servers), a
# small stripe read whole from k rotating sources (k exchanges, each
# data-bearing server k of every p reads) and re-planned around a closed,
# black-holed or corrupt one, a patch source asked once for its prefix
# and parity range,
# per-name verdicts striking one stripe, a slow-everywhere cluster read
# unhedged, a black-holed source costing one hedge per batch (and no
# more while every client of it is out: a checkout ends at the hedge), the one read
# plan on three executors, degraded reads and their trace, the half-open
# probe of a peer whose down window lapsed, bounded by the hedge, the stripe
# cache's batches of one, server spans stitched under the batch's fetch,
# and none anywhere for a read its caller does not trace; cancellation: it
# interrupts an exchange, and every exchange of a round through the
# round's one hook, races its completion without leaving a deadline on a
# parked connection, and costs a client no goroutine; the granule checksums: a range's CRC combined from
# the stored granule CRCs, rot in every granule caught by the reader (or,
# in a granule a range covers in part, by the server) and counted at the
# server, and the counted claim that a unit-aligned read costs the
# servers no CRC; whole-block reads, ranges of length 0 checked at the
# reader and never sent by a Store read; the one carrier, whose
# one-name exchanges ride their pooled client's own batch and leave
# nothing in it; the rot report: every name one exchange lands rotten
# goes back to its server in one verify exchange; and the leased stripe
# loop, which goes back to its free list holding no pointer after a
# healthy, a degraded, a cached and a failed read and a repair of one
# stripe and of several, with the
# cache flights a shard takes back holding nothing. Then, ten times, a
# cache flight's abort interrupting its round at once, and a cancelled
# starter's stats that the flight no longer writes.
readpath:
	$(GO) test -race -count=5 -run 'ReadFile|Strikes|SlowEverywhereIsRead|OnePlan|Degraded|StoreCache|Blackholed|TraceStitching|Untraced|Cancel|Granule|WholeBlockRange|OneCarrier|RotReport|LeasedLoop|HalfOpenProbe|OneStripeRead|WholePlan|PatchSource' ./internal/blockserver
	$(GO) test -race -count=10 -run 'TestStoreCacheAbortInterruptsTheRound|TestStoreCacheCancelledStarterStatsStayPut' ./internal/blockserver

# Fuzz the three decoders of the one record frame (internal/frame), 10 s
# each, from the seed corpora under each package's testdata/fuzz: the bare
# header reader, the block server's request loop over net.Pipe (the block
# map changes only on a put whose header and payload verify; its corpus
# reaches every op, TestFuzzSeedsReachEveryOp checks that, in the one
# name-list grammar every block op shares: the put, range, chunk, verify
# and delete requests' name lists, whole-block ranges, a verify in the
# retired one-name form, a retired op and rebuild requests, well formed
# and not, are among its seeds), and the
# master's journal replay (refuse and leave the file alone, or keep a
# prefix that replays to the same state). Each new interesting input is
# minimised for at most 1 s: at the default 60 s, the journal replay spent
# most of its 10 s minimising one input and ran about 450 inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadHeader$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/frame
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/blockserver
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/master

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
# its one-failure column times the host's decoder. Then run the facade's
# Fig. 6-9 and 11 benchmarks once each (about 1 s): `go test` compiles them
# but never runs them, and the simulated Fig. 9 and 11 ones drive NewFS,
# Read and MapReduce through the public API.
sim:
	mkdir -p .bench_build
	$(GO) build -o .bench_build/clusterbench ./cmd/clusterbench
	for f in 9 10 deg tail; do .bench_build/clusterbench -fig $$f || exit 1; done > .bench_build/sim_figures.txt
	diff results/sim_figures.txt .bench_build/sim_figures.txt
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The examples, run as a user runs them. quickstart, parallelread,
# reconstruction and mapreduce print the same bytes on every run (fixed
# seeds, simulated time), so their output is diffed against the committed
# transcript; re-take results/examples.txt with the same loop only after a
# change that is meant to move what an example prints. tcpcluster prints
# ports and trace IDs, so it only has to exit 0.
examples:
	mkdir -p .bench_build
	for e in quickstart parallelread reconstruction mapreduce; do echo "== $$e"; $(GO) run ./examples/$$e || exit 1; done > .bench_build/examples.txt
	diff results/examples.txt .bench_build/examples.txt
	$(GO) run ./examples/tcpcluster > .bench_build/tcpcluster.txt

# Print the coding microbenchmarks' tables at the environment's GOMAXPROCS.
bench:
	$(GO) run ./cmd/codingbench

# The gated benchmark is its own module, so `go test ./...` never reaches
# it: run its unit tests, then untraced runs of the four large-file
# workloads and the two swarms (10 s for write_large, 2 s for the rest)
# through the entry point
# BENCHMARK.json names (each run checks every byte it moves and exits
# non-zero on a mismatch), and compare them with the committed baseline.
# The spec gates only the counted metrics — wire and allocated bytes per
# user byte. Wire repeats to the fourth digit for the large-file
# workloads on any host even at smoke length, and so does alloc for
# read_large, read_degraded and recover_node; write_large's alloc does
# not: it falls as a run completes more writes (0.0279 B/B at 83
# operations, 0.0269 at 124 in 2 s runs, one binary), close to its 5 %
# bound with no code change, so write_large runs for 10 s, where the
# medians of three A/Bs sat between 0.02534 and 0.02539. Both spread at most 0.3 % for the swarms' random draws
# (EXPERIMENTS.md); timed metrics spread too far in 2 s to gate.
# read_degraded is gated because its counted metrics are counts: the
# planned degraded read fetches exactly one byte per byte
# returned (the any-k race it replaced fetched 2.4, give or take the
# timing of a cancel). -compare exits 1 on a regression and 2 when a
# workload is missing from either file. The baseline's rows must all come
# from one commit, or the gate refuses it: after a change that is meant to
# move a counted metric, re-take every row of
# results/bench_gate_baseline.jsonl with the same runs, at one commit.
bench-gate:
	test "$$(jq -r .host.git_sha results/bench_gate_baseline.jsonl | sort -u | wc -l)" -eq 1 || \
		{ echo "results/bench_gate_baseline.jsonl: rows from more than one commit; re-take them all at one"; exit 1; }
	cd benchmark && $(GO) test .
	rm -f .bench_build/gate.jsonl
	for w in read_large write_large read_degraded recover_node swarm_hot swarm_cold; do \
		s=2; [ $$w = write_large ] && s=10; \
		bash benchmark/run.sh --workload $$w --seconds $$s --trace 0 --results .bench_build/gate.jsonl || exit 1; \
	done
	.bench_build/carousel-benchmark -compare -spec scripts/bench_gate_spec.json results/bench_gate_baseline.jsonl .bench_build/gate.jsonl

# The multi-core scaling sweep of the coding kernels: the coding
# microbenchmarks once per GOMAXPROCS of 1, 2, 4 and 8, the procs axis
# being the environment, as it is for the live store's
# `GOMAXPROCS=N bash benchmark/run.sh ...` (the host stamp records it).
bench-sweep:
	mkdir -p .bench_build
	$(GO) build -o .bench_build/codingbench ./cmd/codingbench
	for p in 1 2 4 8; do GOMAXPROCS=$$p .bench_build/codingbench || exit 1; done

# The hot-read stripe cache: the TinyLFU admission and singleflight unit
# suites plus the store-level cache e2es (warm-read zero dials, error
# fan-out, waiter cancellation, invalidation races), race-enabled; the
# buffer-reuse tests and the admission tests (the swarm_hot hit ratio
# replayed offline, frequency beats recency) ten times under -race (the
# hold and spare unit tests, the content-checked churn under rewrites, a
# fetch into a poisoned spare) and the two tests of a flight with no context of its own (its
# abort interrupts its round; a cancelled starter's stats stay put); then
# a short open-loop Zipf swarm A/B (cache-off vs cache-on, no JSON
# refresh).
swarm:
	$(GO) test -race -count=2 ./internal/stripecache ./internal/workload
	$(GO) test -race -run 'TestStoreCache' ./internal/blockserver
	$(GO) test -race -count=10 -run 'TestHeldEntryStaysOffSpares|TestPutBufferNeverReachesAFlight|TestFinishedFlightPinsForItsWaiters|TestAbandonedFlightReleasesPin|TestSpareIsOverwritten|TestZipfHitRatio|TestAdmissionPrefersFrequentKeys' ./internal/stripecache
	$(GO) test -race -count=10 -run 'TestStoreCacheChurnKeepsBytes|TestStoreCacheFetchOverwritesPoison|TestStoreCacheAbortInterruptsTheRound|TestStoreCacheCancelledStarterStatsStayPut' ./internal/blockserver
	$(GO) run ./cmd/clusterbench -fig swarm -swarmdur 1s -swarmobjs 128

# The swarm A/B at full length, rewriting BENCH_clusterbench.json:
# open-loop Poisson arrivals at 3x the measured cache-off capacity,
# Zipf(1.1) over 256 objects, hundreds of clients, cache-off vs cache-on
# plus both again under injected stragglers.
bench-swarm:
	$(GO) run ./cmd/clusterbench -fig swarm -json

# The observability layer: the family manifest (DESIGN.md §8 table ==
# what the sources register == what obscheck greps), metric/span
# correctness under the race detector, carouselctl stats' merge of
# several nodes' /debug/vars, the degraded-read, per-server tx
# and cross-node trace-stitching e2es, the master's health roll-up
# suites, then a live scrape of both a standalone 3-node cluster and a
# master-managed one.
obs:
	$(GO) test -run 'TestMetricManifest' .
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestStatsPartialMerge|TestStatsMergesNodes' ./cmd/carouselctl
	$(GO) test -race -run 'TestDegradedReadObservability|TestReadStatsCountsAllCorruptVerdicts|TestObsSummaryTxIsPerServer|TestCrossNodeTraceStitching' ./internal/blockserver
	$(GO) test -race -run 'TestBeatHealthRollup|TestClusterRollupGauges' ./internal/master
	./scripts/obscheck.sh
