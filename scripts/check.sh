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
fp() { grep -o '"fingerprint":"[^"]*"' "$1" | head -1; }
SUSS_TRACE="$SMOKE_DIR/smoke.jsonl" \
    cargo run --release -q --bin suss-sim -- --size 300K --cc suss >/dev/null
cargo run --release -q -p simtrace --bin suss-trace -- verify "$SMOKE_DIR/smoke.jsonl"
rows=$(cargo run --release -q -p simtrace --bin suss-trace -- \
    dump "$SMOKE_DIR/smoke.jsonl" --flow 1 --csv | wc -l)
if [ "$rows" -lt 2 ]; then
    echo "suss-trace dump produced no samples" >&2
    exit 1
fi
# A figure binary's --trace goes through the same exporter.
cargo run --release -q -p suss-bench --bin fig09 -- --quick --trace "$SMOKE_DIR/fig09.jsonl" \
    >/dev/null
cargo run --release -q -p simtrace --bin suss-trace -- verify "$SMOKE_DIR/fig09.jsonl"

echo "== engine determinism gate =="
# The scheduler contract, release-compiled: the one engine must reproduce
# the goldens recorded from the original binary-heap engine exactly,
# serial and 4-worker; the wheel's unit tests must agree with the binary
# heap and the Vec-bucket wheel (pop order, length and cascade count) on
# random schedules; and one fig17 cell must stay within its heap
# allocation budget per event.
cargo test --release -q -p netsim --test wheel_equivalence
cargo test --release -q -p netsim --lib wheel::
cargo test --release -q -p experiments --test determinism
cargo test --release -q -p experiments --test alloc_budget

echo "== chaos smoke (fault injection + runner resilience) =="
# End-to-end proof of the crash-proof runner: inject one panicking cell
# and one hung cell into the quick chaos campaign. The run must complete,
# exit non-zero, and record both failures in the manifest, the hang as
# the wall-clock watchdog's verdict; a clean re-run against the same
# cache must recompute exactly the two failed cells and exit zero.
CHAOS_CACHE="$SMOKE_DIR/chaos-cache"
if SUSS_CACHE_DIR="$CHAOS_CACHE" \
    SUSS_CHAOS_PANIC_CELL=flap:cubic:1 \
    SUSS_CHAOS_HANG_CELL=reorder:cubic+suss:2 \
    SUSS_CELL_TIMEOUT_MS=5000 \
    cargo run --release -q -p suss-bench --bin ext_chaos -- --quick \
    >/dev/null 2>"$SMOKE_DIR/chaos.err"; then
    echo "ext_chaos must exit non-zero when cells fail" >&2
    exit 1
fi
grep -q '"status":"Panicked"' results/ext_chaos.manifest.json \
    || { echo "manifest missing Panicked cell" >&2; exit 1; }
grep -q '"status":"TimedOut"' results/ext_chaos.manifest.json \
    || { echo "manifest missing TimedOut cell" >&2; exit 1; }
grep -q '"status":"TimedOut","error":"wall-clock budget exceeded' \
    results/ext_chaos.manifest.json \
    || { echo "TimedOut cell was not abandoned by the wall-clock watchdog" >&2; exit 1; }
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
# Pin the results, not only cold == warm: a change that moved every fleet
# flow the same way would pass the comparison below.
[ "$(fp results/ext_fleet.manifest.json)" = '"fingerprint":"af455e6be4e62388"' ] \
    || { echo "quick ext_fleet fingerprint is not af455e6be4e62388" >&2; exit 1; }
# A warm rerun on the same cache serves every cell from it, so no cell
# reports scope annotations; the fingerprint must still match the cold run.
cp results/ext_fleet.manifest.json "$SMOKE_DIR/fleet-cold.manifest.json"
SUSS_CACHE_DIR="$SMOKE_DIR/fleet-cache" \
    cargo run --release -q -p suss-bench --bin ext_fleet -- --quick --no-progress \
    >/dev/null
grep -q '"cache_misses":0' results/ext_fleet.manifest.json \
    || { echo "warm fleet rerun recomputed cells" >&2; exit 1; }
[ "$(fp "$SMOKE_DIR/fleet-cold.manifest.json")" = "$(fp results/ext_fleet.manifest.json)" ] \
    || { echo "warm fleet rerun fingerprint differs from the cold run" >&2; exit 1; }

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

echo "== resume smoke (a rerun on the same cache finishes a killed run) =="
# Quick Fig. 17 cold on a fresh cache, pinned. Then delete k of its cache
# entries, standing in for the cells a killed run never finished, and
# rerun on the same cache: it must serve the rest, recompute exactly the
# k missing cells, and reproduce the cold run's output and fingerprint.
RESUME_CACHE="$SMOKE_DIR/resume-cache"
SUSS_CACHE_DIR="$RESUME_CACHE" \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress \
    >"$SMOKE_DIR/fig17-cold.txt"
cp results/fig17.manifest.json "$SMOKE_DIR/fig17-cold.manifest.json"
[ "$(fp "$SMOKE_DIR/fig17-cold.manifest.json")" = '"fingerprint":"da234b0cae048268"' ] \
    || { echo "quick fig17 fingerprint is not da234b0cae048268" >&2; exit 1; }
grep -q '"cache_hits":0,"cache_misses":168,' "$SMOKE_DIR/fig17-cold.manifest.json" \
    || { echo "cold quick fig17 must compute all 168 cells" >&2; exit 1; }
k=42
# `sed` reads the whole list, so no stage of the pipe dies of SIGPIPE.
find "$RESUME_CACHE/loss" -name '*.json' | sort | sed -n "1,${k}p" | xargs rm --
SUSS_CACHE_DIR="$RESUME_CACHE" \
    cargo run --release -q -p suss-bench --bin fig17 -- --quick --no-progress \
    >"$SMOKE_DIR/fig17-resumed.txt"
cmp -s "$SMOKE_DIR/fig17-cold.txt" "$SMOKE_DIR/fig17-resumed.txt" \
    || { echo "resumed fig17 output differs from the cold run" >&2; exit 1; }
[ "$(fp "$SMOKE_DIR/fig17-cold.manifest.json")" = "$(fp results/fig17.manifest.json)" ] \
    || { echo "resumed fig17 fingerprint differs from the cold run" >&2; exit 1; }
grep -q "\"cache_misses\":$k," results/fig17.manifest.json \
    || { echo "resume must recompute exactly the $k missing cells" >&2; exit 1; }

echo "== hostile-entry smoke (a bit-rotted cache entry is quarantined, then recomputed) =="
# Flip one byte of one warm quick fig18 entry to 0xFF, which is never
# valid UTF-8. The rerun must quarantine that entry (keep its bytes aside,
# never trust or silently overwrite them), recompute exactly its cell,
# and reproduce the cold run's output and fingerprint.
ROT_CACHE="$SMOKE_DIR/rot-cache"
SUSS_CACHE_DIR="$ROT_CACHE" \
    cargo run --release -q -p suss-bench --bin fig18 -- --quick --no-progress \
    >"$SMOKE_DIR/fig18-cold.txt"
cp results/fig18.manifest.json "$SMOKE_DIR/fig18-cold.manifest.json"
rot=$(find "$ROT_CACHE/fct_sweep" -name '*.json' -print -quit)
printf '\377' | dd of="$rot" bs=1 seek=200 conv=notrunc status=none
SUSS_CACHE_DIR="$ROT_CACHE" \
    cargo run --release -q -p suss-bench --bin fig18 -- --quick --no-progress \
    >"$SMOKE_DIR/fig18-rot.txt"
grep -q '"cache_quarantined":1' results/fig18.manifest.json \
    || { echo "bit-rotted cache entry was not quarantined" >&2; exit 1; }
grep -q '"cache_misses":1,' results/fig18.manifest.json \
    || { echo "rerun after bit rot must recompute exactly one cell" >&2; exit 1; }
[ -f "${rot%.json}.quarantine" ] \
    || { echo "quarantined entry's bytes were not kept" >&2; exit 1; }
cmp -s "$SMOKE_DIR/fig18-cold.txt" "$SMOKE_DIR/fig18-rot.txt" \
    || { echo "fig18 output changed after recomputing the bit-rotted cell" >&2; exit 1; }
[ "$(fp "$SMOKE_DIR/fig18-cold.manifest.json")" = "$(fp results/fig18.manifest.json)" ] \
    || { echo "fig18 fingerprint changed after recomputing the bit-rotted cell" >&2; exit 1; }

echo "== regeneration gate (every committed figure output is what HEAD produces) =="
# All 23 bench binaries at paper scale on a cold cache, each output ending
# with its manifest fingerprint: any difference from results/ fails. A
# warm cache could serve results computed by older code (a cache key
# names CAMPAIGN_VERSION and the params, not the code), so there is none.
# About 35 s on a 2-vCPU VM, 20 s of it table1.
scripts/regen.sh "$SMOKE_DIR/regen"
n_regen=$(find "$SMOKE_DIR/regen" -name '*.txt' | wc -l)
[ "$n_regen" -eq 23 ] || { echo "regen wrote $n_regen outputs, want 23" >&2; exit 1; }
for f in "$SMOKE_DIR/regen"/*.txt; do
    diff -u "results/$(basename "$f")" "$f" \
        || { echo "results/$(basename "$f") is stale: rerun scripts/regen.sh" >&2; exit 1; }
done

echo "== perfbench tests (the benchmark package builds against the workspace API) =="
# perfbench/ is a package of its own outside the workspace, so nothing
# else compiles it; its tests include a traced-vs-untraced fingerprint
# check on real campaign cells.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== rerun smoke (warm fig18 cache hits through Cache::load) =="
# One short timed rerun pass: fig18's 10,920 cell identities against a
# warm cache, every hit read back through the JSON parser and checked
# intact. perfbench exits non-zero if any entry is not served intact or
# two repetitions' fingerprints disagree; it does not compare them to a
# pinned reference, so the grep does. The results digest inside that
# fingerprint hashes the serializer's output, so the grep pins the bytes
# every cached value renders to.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload rerun --seed 1 --seconds 1 --trace 0 >"$SMOKE_DIR/rerun-bench.out"
grep -q '^rerun/fingerprint d120781bf245a9c6 ' "$SMOKE_DIR/rerun-bench.out" \
    || { echo "rerun campaign fingerprint is not d120781bf245a9c6" >&2; exit 1; }

echo "== matrix smoke (full Fig. 17 fingerprint) =="
# One short timed pass of the full Fig. 17 loss matrix (672 cells; quick
# fig17 above covers only a subset). perfbench exits non-zero if any flow
# fails or two repetitions' fingerprints disagree, but it does not compare
# the fingerprint to its pinned reference, so the grep pins it.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload matrix --seed 1 --seconds 1 --trace 0 >"$SMOKE_DIR/matrix-bench.out"
grep -q '^matrix/fingerprint 3ff860225ee916b9 ' "$SMOKE_DIR/matrix-bench.out" \
    || { echo "full matrix campaign fingerprint is not 3ff860225ee916b9" >&2; exit 1; }

echo "== quic smoke (full ext_quic_pacing fingerprint) =="
# One short timed pass of the full QUIC pacing matrix (432 downloads;
# the quic smoke above runs only the quick subset, quic_determinism.rs
# only small goldens). perfbench exits non-zero if any flow fails or two
# repetitions' fingerprints disagree; the grep pins the reference.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload quic --seed 1 --seconds 1 --trace 0 >"$SMOKE_DIR/quic-bench.out"
grep -q '^quic/fingerprint 44ea9649571b3c96 ' "$SMOKE_DIR/quic-bench.out" \
    || { echo "full quic campaign fingerprint is not 44ea9649571b3c96" >&2; exit 1; }

echo "== shim crate tests =="
# The in-repo stand-ins for serde/proptest sit outside the workspace's
# default members; run their own unit tests here.
for shim in serde proptest; do
    cargo test --offline -q --manifest-path "crates/shims/$shim/Cargo.toml" \
        --target-dir target/shims
done

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "All checks passed."
