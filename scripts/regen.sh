#!/usr/bin/env bash
# Regenerate every figure and table at paper scale on a cold cache.
# Usage: scripts/regen.sh [OUT_DIR]   (OUT_DIR defaults to results/)
#
# Each bench binary runs with --no-cache --no-progress in a scratch
# working directory, so its manifest and any flight-recorder dump stay out
# of the repo. Its stdout becomes OUT_DIR/<id>.txt; when the binary writes
# a run manifest, a last line `fingerprint <hex>` names it. Per-binary and
# total wall times go to stderr.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$root/results}")
cd "$root"
mkdir -p "$out"
cargo build --release -q -p suss-bench --bins
bins="$root/target/release"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Knobs that would change what a run computes or prints stay unset.
unset SUSS_CACHE_DIR SUSS_CELL_TIMEOUT_MS SUSS_PROF SUSS_TRACE \
    SUSS_CHAOS_PANIC_CELL SUSS_CHAOS_HANG_CELL
ms() { echo $(( ($(date +%s%N) - $1) / 1000000 )); }
all=$(date +%s%N)
for src in crates/bench/src/bin/*.rs; do
    id=$(basename "$src" .rs)
    mkdir "$work/$id"
    start=$(date +%s%N)
    if ! (cd "$work/$id" && "$bins/$id" --no-cache --no-progress) \
        >"$out/$id.txt" 2>"$work/$id.err"; then
        cat "$work/$id.err" >&2
        echo "regen: $id failed" >&2
        exit 1
    fi
    for m in "$work/$id"/results/*.manifest.json; do
        [ -e "$m" ] || continue
        echo "fingerprint $(grep -o '"fingerprint":"[0-9a-f]*"' "$m" | cut -d'"' -f4)" \
            >>"$out/$id.txt"
    done
    echo "regen: $id $(ms "$start") ms" >&2
done
echo "regen: all $(ms "$all") ms" >&2
