#!/usr/bin/env bash
# Run one campaign binary split across N shard processes, then finish it
# with a plain run that renders the output and writes the final
# results/<bin>.manifest.json. Shards run one after another here; to
# spread them over terminals, machines sharing the cache dir, or a
# cluster scheduler, run `<bin> --shard K/N` for each K wherever you like
# and finish with a plain `<bin>` on the same cache.
#
# Usage: scripts/shard_run.sh <bin> <shards> [extra bench args...]
#   scripts/shard_run.sh fig17 4 --quick
#   SUSS_CACHE_DIR=/nfs/suss-cache scripts/shard_run.sh table1 8
#
# Every shard caches the cells it owns, writes
# results/<bin>.shard<k>of<N>.manifest.json for the operator, and exits
# without rendering figures; the final run serves every cached cell from
# the shared cache and renders the normal output.
#
# Fault tolerance: a shard that exits SHARD_FAILED_EXIT (3: cells failed
# but its manifest was written) or dies outright does NOT abort the
# script — the loop continues, and the final run always happens
# (trap-guarded, so even a mid-loop interrupt still attempts it). It
# recomputes whatever the shards did not cache, so its output is complete
# either way; the script still exits non-zero with a summary when any
# shard was unhealthy, so schedulers notice.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/shard_run.sh <bin> <shards> [extra bench args...]" >&2
    exit 2
fi
bin=$1
shards=$2
shift 2

SHARD_FAILED_EXIT=3
dead=()
finished=0
final_rc=0

run_final() {
    if [ "$finished" -eq 0 ]; then
        finished=1
        echo "final run over the shared cache:" >&2
        cargo run --release -q -p suss-bench --bin "$bin" -- \
            --no-progress "$@" || final_rc=$?
    fi
}

finish() {
    trap - EXIT
    run_final "$@"
    if [ "${#dead[@]}" -gt 0 ]; then
        echo "unhealthy shards: ${dead[*]} (the final run recomputed their uncached cells)" >&2
        exit 1
    fi
    exit "$final_rc"
}

cargo build --release -q -p suss-bench --bin "$bin"
trap 'finish "$@"' EXIT

for ((k = 0; k < shards; k++)); do
    echo "shard $k/$shards:" >&2
    rc=0
    cargo run --release -q -p suss-bench --bin "$bin" -- \
        --no-progress --shard "$k/$shards" "$@" || rc=$?
    if [ "$rc" -eq "$SHARD_FAILED_EXIT" ]; then
        echo "shard $k/$shards completed with failed cells (see its shard manifest)" >&2
        dead+=("$k:failed-cells")
    elif [ "$rc" -ne 0 ]; then
        echo "shard $k/$shards died (exit $rc); the final run will recompute its cells" >&2
        dead+=("$k:exit-$rc")
    fi
done

finish "$@"
