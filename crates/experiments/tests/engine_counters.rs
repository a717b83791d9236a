//! Whole-snapshot counter goldens for a few single-flow cells.
//!
//! `determinism.rs` and the other heap-era goldens leave the
//! engine-internal families (`net.sched_*`, `net.pool_*`) out, because the
//! binary-heap engine counted them differently. But every cached
//! `FlowStats` carries the complete `CounterSnapshot`, so those counters
//! are in every campaign fingerprint too. These goldens pin every counter
//! of each cell, so an engine change that keeps dispatch order but moves
//! the wheel's advance points (and with them `net.sched_cascades`) fails
//! `cargo test` instead of only the pinned campaign fingerprints.
//!
//! If an intentional behavior change moves these numbers, regenerate with
//! `cargo test -p experiments --test engine_counters -- --ignored --nocapture`
//! and paste the printed constants.

use cc_algos::CcKind;
use experiments::quic_pacing::{run_quic_pacing_cell, QuicPacingConfig};
use experiments::run_flow;
use quic_sim::PacingStrategy;
use simtrace::CounterSnapshot;
use workload::{LastHop, PathScenario, ServerSite, MB};

/// A Fig. 17 loss-matrix path: the stock scenario at a 0.5-BDP buffer.
fn loss_path(site: ServerSite, hop: LastHop) -> PathScenario {
    let mut scn = PathScenario::new(site, hop);
    scn.buffer_bdp = 0.5;
    scn
}

/// The pinned cells, each with its complete counter snapshot.
fn cells() -> Vec<(&'static str, CounterSnapshot)> {
    let tcp =
        |site, hop, kind, seed| run_flow(&loss_path(site, hop), kind, 6 * MB, seed, false).counters;
    let quic = || {
        let scn = PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG);
        let mut cfg = QuicPacingConfig::new(scn, PacingStrategy::Burst(8), CcKind::CubicSuss);
        cfg.iters = 1;
        cfg.sizes = vec![MB];
        run_quic_pacing_cell(&cfg, 1).counters
    };
    vec![
        // A single far timer cascades here. A run loop that peeked
        // instead of popping the event closing a same-tick group into the
        // batching stash dispatched identically but counted 6 cascades.
        (
            "oracle-us-west/5G cubic+suss s2",
            tcp(
                ServerSite::OracleUsWest,
                LastHop::FiveG,
                CcKind::CubicSuss,
                2,
            ),
        ),
        // RTT 288 ms: every RTO timer lands beyond the 268 ms wheel window.
        (
            "oracle-london/4G cubic s1",
            tcp(ServerSite::OracleLondon, LastHop::FourG, CcKind::Cubic, 1),
        ),
        // BBR through a shallow buffer: queue drops and loss recovery.
        (
            "google-tokyo/wifi bbr s1",
            tcp(ServerSite::GoogleTokyo, LastHop::WiFi, CcKind::Bbr, 1),
        ),
        ("quic google-us-east/4G burst8 cubic+suss 1MB", quic()),
    ]
}

/// Golden snapshots, one per cell in [`cells`] order, as `(name, value)`
/// pairs sorted by name.
const GOLDEN: &[&[(&str, u64)]] = &[
    // oracle-us-west/5G cubic+suss s2
    &[
        ("cc.hystart_exits", 0),
        ("net.aqm_drops", 0),
        ("net.events_processed", 19390),
        ("net.events_scheduled", 21966),
        ("net.faults_injected", 0),
        ("net.link_flaps", 0),
        ("net.orphan_events", 0),
        ("net.pool_hits", 5292),
        ("net.pool_misses", 2996),
        ("net.queue_depth_hwm_bytes", 336000),
        ("net.queue_drops", 0),
        ("net.sched_batched", 3394),
        ("net.sched_cascades", 1),
        ("suss.pacing_rounds", 3),
        ("tcp.fast_retransmits", 0),
        ("tcp.retransmits", 0),
        ("tcp.rtos", 0),
        ("tcp.segs_sent", 4144),
    ],
    // oracle-london/4G cubic s1
    &[
        ("cc.hystart_exits", 1),
        ("net.aqm_drops", 0),
        ("net.events_processed", 19799),
        ("net.events_scheduled", 20721),
        ("net.faults_injected", 0),
        ("net.link_flaps", 0),
        ("net.orphan_events", 0),
        ("net.pool_hits", 6632),
        ("net.pool_misses", 1660),
        ("net.queue_depth_hwm_bytes", 810000),
        ("net.queue_drops", 4),
        ("net.sched_batched", 3103),
        ("net.sched_cascades", 4035),
        ("tcp.fast_retransmits", 1),
        ("tcp.retransmits", 4),
        ("tcp.rtos", 0),
        ("tcp.segs_sent", 4148),
    ],
    // google-tokyo/wifi bbr s1
    &[
        ("cc.hystart_exits", 0),
        ("net.aqm_drops", 0),
        ("net.events_processed", 26730),
        ("net.events_scheduled", 26732),
        ("net.faults_injected", 0),
        ("net.link_flaps", 0),
        ("net.orphan_events", 0),
        ("net.pool_hits", 6361),
        ("net.pool_misses", 2089),
        ("net.queue_depth_hwm_bytes", 939988),
        ("net.queue_drops", 162),
        ("net.sched_batched", 3197),
        ("net.sched_cascades", 560),
        ("tcp.fast_retransmits", 1),
        ("tcp.retransmits", 162),
        ("tcp.rtos", 1),
        ("tcp.segs_sent", 4306),
    ],
    // quic google-us-east/4G burst8 cubic+suss 1MB
    &[
        ("cc.hystart_exits", 1),
        ("net.aqm_drops", 0),
        ("net.events_processed", 3754),
        ("net.events_scheduled", 3917),
        ("net.faults_injected", 0),
        ("net.link_flaps", 0),
        ("net.orphan_events", 0),
        ("net.pool_hits", 1185),
        ("net.pool_misses", 197),
        ("net.queue_depth_hwm_bytes", 13482),
        ("net.queue_drops", 0),
        ("net.sched_batched", 232),
        ("net.sched_cascades", 8),
        ("quic.acks_sent", 691),
        ("quic.pace_delays", 441),
        ("quic.pkts_lost", 0),
        ("quic.pkts_sent", 691),
        ("quic.ptos", 0),
        ("quic.retransmits", 0),
        ("suss.pacing_rounds", 1),
    ],
];

fn pairs(c: &CounterSnapshot) -> Vec<(&str, u64)> {
    c.metrics.iter().map(|m| (&*m.name, m.value)).collect()
}

#[test]
fn engine_counters_match_golden() {
    let cells = cells();
    assert_eq!(cells.len(), GOLDEN.len(), "one golden per cell");
    for ((label, snap), want) in cells.iter().zip(GOLDEN) {
        assert_eq!(pairs(snap), want.to_vec(), "{label}: counters diverged");
    }
}

#[test]
fn golden_cells_exercise_the_engine_internals() {
    let get = |i: usize, name: &str| {
        GOLDEN[i]
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    assert!(get(0, simtrace::names::NET_SCHED_CASCADES) > 0);
    assert!(get(1, simtrace::names::NET_SCHED_CASCADES) > 0);
    assert!(get(2, simtrace::names::NET_QUEUE_DROPS) > 0);
    assert!(get(2, simtrace::names::TCP_RTOS) > 0);
    for i in 0..GOLDEN.len() {
        assert!(get(i, simtrace::names::NET_POOL_HITS) > 0);
    }
}

#[test]
#[ignore = "prints the goldens; run with --ignored --nocapture"]
fn print_golden() {
    println!("const GOLDEN: &[&[(&str, u64)]] = &[");
    for (label, snap) in cells() {
        println!("    // {label}");
        println!("    &[");
        for (name, value) in pairs(&snap) {
            println!("        ({name:?}, {value}),");
        }
        println!("    ],");
    }
    println!("];");
}
