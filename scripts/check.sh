#!/usr/bin/env bash
# The full pre-merge gate: build, tests, lints, formatting.
# Usage: scripts/check.sh (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== suss-trace smoke =="
# A tiny traced download must produce JSONL that parses, carries non-zero
# counters, and dumps a cwnd timeseries.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
SUSS_TRACE="$SMOKE_DIR/smoke.jsonl" \
    cargo run --release -q --bin suss-sim -- --size 300K --cc suss >/dev/null
cargo run --release -q -p simtrace --bin suss-trace -- verify "$SMOKE_DIR/smoke.jsonl"
rows=$(cargo run --release -q -p simtrace --bin suss-trace -- \
    dump "$SMOKE_DIR/smoke.jsonl" --flow 1 --csv | wc -l)
if [ "$rows" -lt 2 ]; then
    echo "suss-trace dump produced no samples" >&2
    exit 1
fi

echo "== engine determinism gate =="
# The scheduler contract, release-compiled: the one engine must reproduce
# the goldens recorded from the original binary-heap engine exactly,
# serial and 4-worker.
cargo test --release -q -p netsim --test wheel_equivalence
cargo test --release -q -p experiments --test determinism

echo "== chaos smoke (fault injection + runner resilience) =="
# End-to-end proof of the crash-proof runner: inject one always-panicking
# cell and one hung cell into the quick chaos campaign. The run must
# complete, exit non-zero, and record both failures in the manifest; a
# clean re-run against the same cache must recompute exactly the two
# failed cells and exit zero.
CHAOS_CACHE="$SMOKE_DIR/chaos-cache"
if SUSS_CACHE_DIR="$CHAOS_CACHE" \
    SUSS_CHAOS_PANIC_CELL=flap:cubic:1 \
    SUSS_CHAOS_HANG_CELL=reorder:cubic+suss:2 \
    SUSS_CELL_TIMEOUT_MS=5000 \
    SUSS_CELL_RETRIES=1 \
    cargo run --release -q -p suss-bench --bin ext_chaos -- --quick \
    >/dev/null 2>"$SMOKE_DIR/chaos.err"; then
    echo "ext_chaos must exit non-zero when cells fail" >&2
    exit 1
fi
grep -q '"status":"Panicked"' results/ext_chaos.manifest.json \
    || { echo "manifest missing Panicked cell" >&2; exit 1; }
grep -q '"status":"TimedOut"' results/ext_chaos.manifest.json \
    || { echo "manifest missing TimedOut cell" >&2; exit 1; }
# Every terminal failure must leave a flight-recorder dump, referenced
# from the manifest, that parses and verifies as trace JSONL.
frecs=$(grep -o '"flightrec":"results/flightrec/[^"]*"' \
    results/ext_chaos.manifest.json | cut -d'"' -f4)
n_frecs=$(printf '%s\n' "$frecs" | grep -c . || true)
if [ "$n_frecs" -lt 2 ]; then
    echo "manifest references $n_frecs flight-recorder dumps, want 2" >&2
    exit 1
fi
for f in $frecs; do
    [ -f "$f" ] || { echo "missing flight-recorder dump $f" >&2; exit 1; }
    cargo run --release -q -p simtrace --bin suss-trace -- verify "$f"
done
SUSS_CACHE_DIR="$CHAOS_CACHE" \
    cargo run --release -q -p suss-bench --bin ext_chaos -- --quick \
    >/dev/null 2>"$SMOKE_DIR/chaos.err"
grep -q '"cache_hits":14' results/ext_chaos.manifest.json \
    || { echo "resume should recompute exactly the 2 failed cells" >&2; exit 1; }

echo "== fleet smoke (open-loop FCT campaign, quick, profiled) =="
# The quick fleet sweep (150 flows × 18 cells) must complete every flow
# and publish FCT-percentile annotations in its manifest. The bin itself
# exits non-zero if any cell fails or if a flow never finishes draining.
# Run cold with the span profiler on: the profile must attribute ≥ 95%
# of wall time to named spans, and the bottleneck scope samples must land
# as scope/* annotations.
SUSS_PROF=1 SUSS_CACHE_DIR="$SMOKE_DIR/fleet-cache" \
    cargo run --release -q -p suss-bench --bin ext_fleet -- --quick --no-progress \
    >"$SMOKE_DIR/fleet.out"
grep -Eq 'fleet: spawned=[0-9]+ completed=[1-9][0-9]* expired=0' \
    "$SMOKE_DIR/fleet.out" \
    || { echo "ext_fleet quick run left flows incomplete" >&2; exit 1; }
grep -q '"p99"' results/ext_fleet.manifest.json \
    || { echo "fleet manifest missing FCT annotations" >&2; exit 1; }
grep -q '"label":"scope/' results/ext_fleet.manifest.json \
    || { echo "fleet manifest missing scope annotations" >&2; exit 1; }
cargo run --release -q -p simtrace --bin suss-trace -- \
    profile results/ext_fleet.manifest.json --min-coverage 95 >/dev/null

echo "== quic smoke (pacing-strategy matrix, quick, profiled, determinism re-run) =="
# The quick QUIC pacing matrix (2 scenarios × 3 strategies × 2 CCs) must
# complete every download and publish FCT-percentile annotations; the bin
# exits non-zero if any cell fails. The first run is profiled and must
# attribute ≥ 95% of wall time to named spans. A cold unprofiled 2-worker
# re-run must reproduce the annotations byte for byte — the
# campaign-level determinism gate for the second transport, which also
# shows that profiling changes no result.
SUSS_PROF=1 SUSS_CACHE_DIR="$SMOKE_DIR/quic-cache" \
    cargo run --release -q -p suss-bench --bin ext_quic_pacing -- --quick --no-progress \
    >"$SMOKE_DIR/quic.out"
grep -Eq 'quic pacing: completed=[1-9][0-9]* incomplete=0' "$SMOKE_DIR/quic.out" \
    || { echo "ext_quic_pacing quick run left downloads incomplete" >&2; exit 1; }
grep -q '"p99"' results/ext_quic_pacing.manifest.json \
    || { echo "quic manifest missing FCT annotations" >&2; exit 1; }
grep -q '"status":"Ok"' results/ext_quic_pacing.manifest.json \
    || { echo "quic manifest missing Ok cells" >&2; exit 1; }
cargo run --release -q -p simtrace --bin suss-trace -- \
    profile results/ext_quic_pacing.manifest.json --min-coverage 95 >/dev/null
grep -o '"annotations":\[[^]]*\]' results/ext_quic_pacing.manifest.json \
    >"$SMOKE_DIR/quic-ann.1"
SUSS_CACHE_DIR="$SMOKE_DIR/quic-cache" \
    cargo run --release -q -p suss-bench --bin ext_quic_pacing -- \
    --quick --no-progress --workers 2 --cold >/dev/null
grep -o '"annotations":\[[^]]*\]' results/ext_quic_pacing.manifest.json \
    >"$SMOKE_DIR/quic-ann.2"
cmp -s "$SMOKE_DIR/quic-ann.1" "$SMOKE_DIR/quic-ann.2" \
    || { echo "quic annotations differ across worker counts" >&2; exit 1; }

echo "== shard smoke (distributed campaign: split, merge, resume) =="
# The shard-equivalence contract, end to end through a real binary: the
# quick Fig. 17 campaign split across 2 shard child processes sharing a
# cache must render byte-identical output and an identical manifest
# fingerprint to the single-process run; a shard that died before
# running must be recoverable by re-running the coordinator, with the
# surviving shard's cells served warm from the shared cache.
SHARD_CACHE="$SMOKE_DIR/shard-cache"
SUSS_CACHE_DIR="$SHARD_CACHE-ref" \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress \
    >"$SMOKE_DIR/fig17-single.txt"
cp results/fig17.manifest.json "$SMOKE_DIR/fig17-single.manifest.json"
SUSS_CACHE_DIR="$SHARD_CACHE" \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress --shards 2 \
    >"$SMOKE_DIR/fig17-sharded.txt"
cmp -s "$SMOKE_DIR/fig17-single.txt" "$SMOKE_DIR/fig17-sharded.txt" \
    || { echo "sharded fig17 output differs from single-process" >&2; exit 1; }
fp() { grep -o '"fingerprint":"[^"]*"' "$1" | head -1; }
[ -n "$(fp results/fig17.manifest.json | cut -d'"' -f4)" ] \
    || { echo "merged manifest is missing its fingerprint" >&2; exit 1; }
[ "$(fp "$SMOKE_DIR/fig17-single.manifest.json")" = "$(fp results/fig17.manifest.json)" ] \
    || { echo "sharded manifest fingerprint differs from single-process" >&2; exit 1; }
[ -f results/fig17.shard0of2.manifest.json ] \
    && [ -f results/fig17.shard1of2.manifest.json ] \
    || { echo "shard manifests not written" >&2; exit 1; }
# Killed-shard resume: only shard 0 ran before the "crash"; re-running
# the coordinator must finish the campaign with shard 0's cells warm.
rm -rf "$SHARD_CACHE" results/fig17.shard*of2.manifest.json
SUSS_CACHE_DIR="$SHARD_CACHE" \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress --shard 0/2 \
    >/dev/null
SUSS_CACHE_DIR="$SHARD_CACHE" \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress --shards 2 \
    >"$SMOKE_DIR/fig17-resumed.txt"
cmp -s "$SMOKE_DIR/fig17-single.txt" "$SMOKE_DIR/fig17-resumed.txt" \
    || { echo "resumed sharded run differs from single-process" >&2; exit 1; }
[ "$(fp "$SMOKE_DIR/fig17-single.manifest.json")" = "$(fp results/fig17.manifest.json)" ] \
    || { echo "resumed manifest fingerprint differs from single-process" >&2; exit 1; }
grep -q '"cache_hits":0,' results/fig17.manifest.json \
    && { echo "resume did not reuse the dead run's cached cells" >&2; exit 1; }

echo "== shard-chaos smoke (SIGKILLed shard child, self-healing coordinator) =="
# The self-healing contract, end to end: shard 1 SIGKILLs itself after 3
# computed cells (no manifest flush — a real crash), the coordinator
# restarts it once, and the campaign must still complete with stdout and
# manifest fingerprint byte-identical to the single-process run, the
# recovery visible in the manifest counters, and the coordination scratch
# files (heartbeats, shard plan) cleaned up on success.
SUSS_CACHE_DIR="$SMOKE_DIR/shard-chaos-cache" \
    SUSS_CHAOS_KILL_SHARD=1:3 \
    SUSS_SHARD_RESTARTS=1 \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress --shards 2 \
    >"$SMOKE_DIR/fig17-chaos.txt" 2>"$SMOKE_DIR/fig17-chaos.err"
grep -q 'chaos: shard 1/2 SIGKILLing itself' "$SMOKE_DIR/fig17-chaos.err" \
    || { echo "chaos kill never fired (stage is vacuous)" >&2; exit 1; }
cmp -s "$SMOKE_DIR/fig17-single.txt" "$SMOKE_DIR/fig17-chaos.txt" \
    || { echo "chaos-recovered fig17 output differs from single-process" >&2; exit 1; }
[ "$(fp "$SMOKE_DIR/fig17-single.manifest.json")" = "$(fp results/fig17.manifest.json)" ] \
    || { echo "chaos-recovered manifest fingerprint differs from single-process" >&2; exit 1; }
grep -Eq '"shard_restarts":[1-9]' results/fig17.manifest.json \
    || { echo "manifest does not record the shard restart" >&2; exit 1; }
ls results/fig17.shard*.heartbeat.json >/dev/null 2>&1 \
    && { echo "heartbeat files not cleaned up after success" >&2; exit 1; }
[ -f results/fig17.shardplan.json ] \
    && { echo "shard plan not cleaned up after success" >&2; exit 1; }

echo "== perfbench tests (the benchmark package builds against the workspace API) =="
# perfbench/ is a package of its own outside the workspace, so nothing
# else compiles it; its tests include a traced-vs-untraced fingerprint
# check on real campaign cells.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== shim crate tests =="
# The in-repo stand-ins for serde/proptest/criterion sit outside the
# workspace's default members; run their own unit tests here.
for shim in serde proptest criterion; do
    cargo test --offline -q --manifest-path "crates/shims/$shim/Cargo.toml" \
        --target-dir target/shims
done

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "All checks passed."
