//! quic-sim campaign determinism gates: the pacing-matrix results are a
//! pure function of (config, seed) — independent of worker count and
//! equal to what the original binary-heap engine recorded, the same
//! contracts the TCP campaigns are held to.

use cc_algos::CcKind;
use experiments::quic_pacing::{
    quic_pacing_table, run_quic_pacing_cell, QuicPacingConfig, QUIC_SIZES_QUICK,
};
use quic_sim::PacingStrategy;
use simrunner::RunnerOpts;
use workload::{LastHop, PathScenario, ServerSite, KB, MB};

mod golden;
use golden::{counters_digest, hist_digest};

fn small_cfg(cc: CcKind, strategy: PacingStrategy) -> QuicPacingConfig {
    let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
    let mut cfg = QuicPacingConfig::new(scn, strategy, cc);
    cfg.iters = 2;
    cfg.sizes = vec![200 * KB, MB];
    cfg
}

#[test]
fn worker_count_does_not_change_results() {
    // The full matrix at 1 and 4 workers, cold both times: per-cell
    // results and manifest annotations must match exactly.
    let serial = quic_pacing_table(1, &QUIC_SIZES_QUICK, 1, &RunnerOpts::serial());
    let parallel = quic_pacing_table(
        1,
        &QUIC_SIZES_QUICK,
        1,
        &RunnerOpts::serial().with_workers(4),
    );
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
    let (completed, incomplete) = serial.totals();
    assert!(completed > 0, "cells must complete downloads");
    assert_eq!(incomplete, 0, "quick matrix must fully drain");
}

#[test]
fn engine_choice_does_not_change_results() {
    // Recorded from the binary-heap engine (no pooling, no batching) at
    // seed 9, one row per strategy in `PacingStrategy::matrix()` order:
    // FCT histogram digests (small, mid, large) and counter digest. Every
    // cell completes all 4 downloads.
    const GOLDEN: [([u64; 3], (usize, u64)); 3] = [
        (
            [
                0xec5f_375a_a1b8_ba4d,
                0xf655_16b8_2930_a4cd,
                0x3152_febc_9d3f_cdfd,
            ],
            (16, 0x94d9_6c0f_a04b_26d2),
        ),
        (
            [
                0x9024_fbb4_ce80_8f8d,
                0xb20f_954a_35ed_4285,
                0x3152_febc_9d3f_cdfd,
            ],
            (16, 0xab26_8bbf_25d3_3433),
        ),
        (
            [
                0xec5f_375a_a1b8_ba4d,
                0xf655_16b8_2930_a4cd,
                0x3152_febc_9d3f_cdfd,
            ],
            (16, 0xc960_8d3c_e477_3b90),
        ),
    ];
    for (strategy, (hists, counters)) in PacingStrategy::matrix().into_iter().zip(GOLDEN) {
        let a = run_quic_pacing_cell(&small_cfg(CcKind::CubicSuss, strategy), 9);
        assert_eq!((a.completed, a.incomplete), (4, 0), "{strategy:?}");
        assert_eq!(
            [&a.hist_small, &a.hist_mid, &a.hist_large].map(hist_digest),
            hists,
            "{strategy:?}"
        );
        assert_eq!(
            counters_digest(&a.counters),
            counters,
            "{strategy:?}: {:?}",
            a.counters
        );
    }
}

#[test]
fn paired_seeds_give_cubic_and_suss_identical_randomness() {
    // Within a (scenario, strategy) pair the campaign hands both
    // controllers the same seed, so their per-download sub-seeds — and
    // therefore their path randomness — are identical. A CUBIC cell
    // rerun under the CUBIC label must reproduce itself exactly.
    let a = run_quic_pacing_cell(&small_cfg(CcKind::Cubic, PacingStrategy::PerPacket), 21);
    let b = run_quic_pacing_cell(&small_cfg(CcKind::Cubic, PacingStrategy::PerPacket), 21);
    assert_eq!(a, b);
}
