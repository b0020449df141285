#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's command is);
#   benchmark/run.sh
#       a full set: every workload in a fresh process, so setup_s and
#       mem_sys_mb are per workload, then the traced run of each, all
#       appended to one results file that -compare reads.
#
# Environment for a full set: SETS (untraced runs per workload, default 1;
# each takes the next seed), SEED (first seed), SECONDS_PER_RUN, RESULTS.
#
# Everything the build leaves behind — the binary and the Go tool's caches
# — goes under .bench_build at the root of the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
bin="$build/carousel-benchmark"

mkdir -p "$build/home"
(
	cd "$here"
	HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config" \
		GOPATH="$build/home/go" GOFLAGS= GOTOOLCHAIN=local go build -o "$bin" .
)

cd "$root"
BENCH_GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_GIT_SHA

if [ $# -gt 0 ]; then
	exec "$bin" "$@"
fi

workloads="read_large write_large read_degraded recover_node swarm_hot swarm_cold"
sets=${SETS:-1}
seed=${SEED:-20170605}
seconds=${SECONDS_PER_RUN:-10}
results=${RESULTS:-benchmark/out/results-$(date +%Y%m%dT%H%M%S).jsonl}
mkdir -p "$(dirname "$results")"

for ((s = 0; s < sets; s++)); do
	for w in $workloads; do
		"$bin" --workload "$w" --seed $((seed + s)) --seconds "$seconds" --trace 0 --results "$results"
	done
done
for w in $workloads; do
	"$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 --results "$results"
done
echo "results: $results"
