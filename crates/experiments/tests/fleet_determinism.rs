//! Fleet determinism contracts: results are a pure function of
//! (config, seed) — independent of worker count and cache state, and
//! equal to what the original binary-heap engine recorded — and trace
//! sampling never leaks into them.

use cc_algos::CcKind;
use experiments::fleet::{fleet_table, run_fleet_cell, FleetConfig};
use simrunner::RunnerOpts;
use workload::{FleetWorkload, LastHop, PathScenario, ServerSite};

mod golden;
use golden::{counters_digest, hist_digest};

fn small_cfg(cc: CcKind) -> FleetConfig {
    let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
    FleetConfig::new(scn, cc, FleetWorkload::web(0.5, scn.bottleneck, 60))
}

#[test]
fn worker_count_does_not_change_results() {
    // The same tiny sweep at 1 and 4 workers, cold both times: per-cell
    // results and manifest annotations must match exactly.
    let serial = fleet_table(30, 1, &RunnerOpts::serial());
    let parallel = fleet_table(30, 1, &RunnerOpts::serial().with_workers(4));
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.totals(), parallel.totals());
    assert_eq!(
        serial.manifest.annotations.len(),
        parallel.manifest.annotations.len()
    );
    for (a, b) in serial
        .manifest
        .annotations
        .iter()
        .zip(&parallel.manifest.annotations)
    {
        assert_eq!(a.label, b.label);
        assert_eq!(a.n, b.n);
        assert_eq!((a.p50, a.p90, a.p99, a.p999), (b.p50, b.p90, b.p99, b.p999));
    }
    assert!(serial.totals().1 > 0, "cells must complete flows");
}

#[test]
fn engine_choice_does_not_change_results() {
    // Recorded from the binary-heap engine (no pooling, no batching) at
    // seed 9: the one engine must reproduce its FCT distributions and
    // every counter outside `net.sched_*`/`net.pool_*`.
    let a = run_fleet_cell(&small_cfg(CcKind::CubicSuss), 9);
    assert_eq!(
        (a.spawned, a.completed, a.expired, a.peak_concurrent),
        (60, 60, 0, 32)
    );
    assert_eq!(
        [&a.hist_small, &a.hist_mid, &a.hist_large].map(hist_digest),
        [
            0x14fe_0057_56da_9623,
            0xe902_8818_151e_c0fb,
            0x3152_febc_9d3f_cdfd
        ]
    );
    assert_eq!(
        counters_digest(&a.counters),
        (20, 0x0cca_5e63_5f28_9eac),
        "{:?}",
        a.counters
    );
}

#[test]
fn histogram_merge_is_commutative_across_cells() {
    // Merging per-cell histograms in either order gives the same
    // aggregate — the property campaign-level aggregation relies on.
    let a = run_fleet_cell(&small_cfg(CcKind::Cubic), 3);
    let b = run_fleet_cell(&small_cfg(CcKind::Bbr), 4);
    let ab = a.hist_all().merged(&b.hist_all());
    let ba = b.hist_all().merged(&a.hist_all());
    assert_eq!(ab, ba);
    assert_eq!(ab.count(), a.completed + b.completed);
}

#[test]
fn trace_sampling_does_not_change_results() {
    // ConnTrace sampling (on, off, or capped) is observability only: the
    // measured FCT distribution must be byte-identical in all modes.
    let base = run_fleet_cell(&small_cfg(CcKind::Cubic), 5);
    let mut traced = small_cfg(CcKind::Cubic);
    traced.trace_sampling = true;
    let on = run_fleet_cell(&traced, 5);
    let mut capped = small_cfg(CcKind::Cubic);
    capped.trace_sampling = true;
    capped.trace_flow_cap = 0;
    let off = run_fleet_cell(&capped, 5);

    for other in [&on, &off] {
        assert_eq!(base.hist_small, other.hist_small);
        assert_eq!(base.hist_mid, other.hist_mid);
        assert_eq!(base.hist_large, other.hist_large);
        assert_eq!(base.completed, other.completed);
    }
    // The cap suppressed every request; without a cap nothing was.
    assert_eq!(
        off.counters.get(simtrace::names::FLEET_TRACES_SUPPRESSED),
        Some(off.spawned)
    );
    assert_eq!(
        on.counters.get(simtrace::names::FLEET_TRACES_SUPPRESSED),
        Some(0)
    );
}
