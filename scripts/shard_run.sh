#!/usr/bin/env bash
# Run one campaign binary split across N shard processes, then merge the
# shard manifests into the final results/<bin>.manifest.json. Shards run
# one after another here; to spread them over terminals, machines sharing
# the cache dir, or a cluster scheduler, run `<bin> --shard K/N` for each
# K wherever you like and finish with `<bin> --merge-shards N`.
#
# Usage: scripts/shard_run.sh <bin> <shards> [extra bench args...]
#   scripts/shard_run.sh fig17 4 --quick
#   SUSS_CACHE_DIR=/nfs/suss-cache scripts/shard_run.sh table1 8
#
# Every shard writes results/<bin>.shard<k>of<N>.manifest.json and exits
# without rendering figures; the final merge invocation reloads the full
# result set from the shared cache and renders the normal output.
#
# Fault tolerance: a shard that exits SHARD_FAILED_EXIT (3: cells failed
# but its manifest was written) or dies outright does NOT abort the
# script — the loop continues, and the merge always runs (trap-guarded,
# so even a mid-loop interrupt still attempts it). The merge reassigns a
# dead shard's remaining cells inline through the shared cache, so the
# final manifest is complete either way; the script still exits non-zero
# with a summary when any shard was unhealthy, so schedulers notice.
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
merged=0
merge_rc=0

run_merge() {
    if [ "$merged" -eq 0 ]; then
        merged=1
        echo "merging $shards shard manifests:" >&2
        cargo run --release -q -p suss-bench --bin "$bin" -- \
            --no-progress --merge-shards "$shards" "$@" || merge_rc=$?
    fi
}

finish() {
    trap - EXIT
    run_merge "$@"
    if [ "${#dead[@]}" -gt 0 ]; then
        echo "unhealthy shards: ${dead[*]} (merge reassigned their remaining cells)" >&2
        exit 1
    fi
    exit "$merge_rc"
}

cargo build --release -q -p suss-bench --bin "$bin"
# A shard manifest left by an earlier run would stand in for a shard that
# dies in this one; start from none.
rm -f "results/$bin.shard"*"of$shards.manifest.json"
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
        echo "shard $k/$shards died (exit $rc); its cells will be reassigned at merge" >&2
        dead+=("$k:exit-$rc")
    fi
done

finish "$@"
