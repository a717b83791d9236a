//! `ext_quic_pacing`: the QUIC pacing-strategy matrix, with SUSS on top.
//!
//! "QUIC Steps" showed that real QUIC stacks space their departures in
//! materially different ways — per-packet token buckets, GSO-style
//! bursts, coarse interval timers — and that the choice alone moves
//! slow-start behavior. This campaign reproduces that comparison on the
//! `quic-sim` transport and then asks the SUSS question on top of it:
//! does predictive slow-start acceleration survive every departure
//! shape, or does it depend on fine-grained pacing?
//!
//! The matrix: {4G, wired} paths × {per-packet, burst-8, chunked-5ms}
//! pacing × {CUBIC, CUBIC+SUSS}, each cell a batch of single-flow
//! downloads across the short-flow size grid where slow-start dominates
//! FCT. Within a (scenario, strategy) pair both controllers see the same
//! seeds — the campaign version of the paper's paired A/B runs. FCT
//! percentiles land per flow-size bucket in the run manifest as
//! [`FctAnnotation`]s.

use crate::campaigns::CAMPAIGN_VERSION;
use crate::fleet::{BUCKET_MID_MAX, BUCKET_SMALL_MAX};
use crate::runner::{collect_sim_telemetry, IW, MSS};
use cc_algos::CcKind;
use netsim::{EngineConfig, FlowId, Sim, SimTime};
use quic_sim::{install_quic_flow, wire_quic_flow, PacingStrategy, QuicConfig, QuicSender};
use serde::{Deserialize, Serialize};
use simrunner::{Campaign, FctAnnotation, RunManifest, RunnerOpts};
use simstats::{LogHistogram, TextTable};
use workload::{LastHop, PathScenario, ServerSite, KB, MB};

/// The full short-flow size grid (slow-start-dominated downloads).
pub const QUIC_SIZES_FULL: [u64; 6] = [100 * KB, 200 * KB, 500 * KB, MB, 2 * MB, 4 * MB];

/// The quick-mode size grid.
pub const QUIC_SIZES_QUICK: [u64; 2] = [200 * KB, MB];

/// Controllers compared in every (scenario, strategy) pair.
pub const QUIC_CCS: [CcKind; 2] = [CcKind::Cubic, CcKind::CubicSuss];

/// One campaign cell: a path, a departure shape, and a controller.
#[derive(Debug, Clone)]
pub struct QuicPacingConfig {
    /// Path scenario supplying the data link and ack link.
    pub scenario: PathScenario,
    /// How the sender spaces departures.
    pub strategy: PacingStrategy,
    /// Congestion controller, attached via the `QuicController` adapter.
    pub cc: CcKind,
    /// Seeded repetitions of the size grid.
    pub iters: u64,
    /// Download sizes run per iteration.
    pub sizes: Vec<u64>,
    /// Fieldless and ignored here. Exists only for the benchmark package
    /// under `perfbench/`, which passes it to `Sim::with_engine`.
    pub engine: EngineConfig,
}

impl QuicPacingConfig {
    /// A cell with the full size grid and six iterations.
    pub fn new(scenario: PathScenario, strategy: PacingStrategy, cc: CcKind) -> Self {
        QuicPacingConfig {
            scenario,
            strategy,
            cc,
            iters: 6,
            sizes: QUIC_SIZES_FULL.to_vec(),
            engine: EngineConfig,
        }
    }

    /// Canonical parameter string for cache identity: everything that can
    /// influence the cell's [`QuicPacingStats`].
    pub fn canonical_params(&self) -> String {
        format!(
            "quic {} strategy={} cc={} iters={} sizes={:?}",
            self.scenario.canonical_params(),
            self.strategy.label(),
            self.cc.label(),
            self.iters,
            self.sizes,
        )
    }
}

/// Everything measured from one pacing-matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuicPacingStats {
    /// Downloads that completed (with an FCT sample).
    pub completed: u64,
    /// Downloads still incomplete at the horizon.
    pub incomplete: u64,
    /// FCT histogram for flows ≤ 200 KB.
    pub hist_small: LogHistogram,
    /// FCT histogram for flows in (200 KB, 2 MB].
    pub hist_mid: LogHistogram,
    /// FCT histogram for flows > 2 MB.
    pub hist_large: LogHistogram,
    /// Merged counter snapshot across the cell's simulations (`quic.*`,
    /// `net.*`, `suss.*` — see `simtrace::names`).
    pub counters: simtrace::CounterSnapshot,
}

impl QuicPacingStats {
    fn new() -> Self {
        QuicPacingStats {
            completed: 0,
            incomplete: 0,
            hist_small: LogHistogram::new(),
            hist_mid: LogHistogram::new(),
            hist_large: LogHistogram::new(),
            counters: simtrace::CounterSnapshot::default(),
        }
    }

    /// The labelled flow-size buckets, small to large (same edges as the
    /// fleet campaign, so tables line up).
    pub fn buckets(&self) -> [(&'static str, &LogHistogram); 3] {
        [
            ("<=200KB", &self.hist_small),
            ("<=2MB", &self.hist_mid),
            (">2MB", &self.hist_large),
        ]
    }

    /// All buckets merged into one distribution.
    pub fn hist_all(&self) -> LogHistogram {
        self.hist_small
            .merged(&self.hist_mid)
            .merged(&self.hist_large)
    }

    fn bucket_mut(&mut self, bytes: u64) -> &mut LogHistogram {
        if bytes <= BUCKET_SMALL_MAX {
            &mut self.hist_small
        } else if bytes <= BUCKET_MID_MAX {
            &mut self.hist_mid
        } else {
            &mut self.hist_large
        }
    }
}

/// Run one download of `flow_bytes` over the cell's path and return the
/// receiver-side FCT in seconds, if it completed.
fn run_one(cfg: &QuicPacingConfig, flow_bytes: u64, seed: u64) -> (Option<f64>, Sim) {
    let mut sim = Sim::new(seed);
    let qcfg = QuicConfig::bulk(flow_bytes).with_strategy(cfg.strategy);
    let ends = install_quic_flow(
        &mut sim,
        FlowId(1),
        qcfg,
        cc_algos::make_quic_controller(cfg.cc, IW, MSS),
    );
    let s2r = sim.add_half_link(ends.sender, ends.receiver, cfg.scenario.data_link());
    let r2s = sim.add_half_link(ends.receiver, ends.sender, cfg.scenario.ack_link());
    wire_quic_flow(&mut sim, ends, s2r, r2s);

    sim.run_while(SimTime::from_secs(600), |sim| {
        !sim.agent::<QuicSender>(ends.sender).is_done()
    });

    let fct = quic_sim::flow::teardown_quic_flow(&mut sim, ends)
        .map(|t| t.saturating_since(SimTime::ZERO).as_secs_f64());
    (fct, sim)
}

/// Run one pacing-matrix cell: `iters` seeded repetitions of the size
/// grid, each download its own simulation.
///
/// Deterministic: the result is a pure function of `(cfg, seed)` —
/// identical at any worker count.
pub fn run_quic_pacing_cell(cfg: &QuicPacingConfig, seed: u64) -> QuicPacingStats {
    let _cell_span = simtrace::prof::span("quic/cell");
    let mut stats = QuicPacingStats::new();
    for iter in 0..cfg.iters {
        for (si, &bytes) in cfg.sizes.iter().enumerate() {
            // One sub-seed per (iteration, size), spread so neighbouring
            // cells never collide; paired across controllers because the
            // campaign hands both the same `seed`.
            let sub = seed
                .wrapping_add(iter.wrapping_mul(7919))
                .wrapping_add((si as u64).wrapping_mul(104_729));
            let (fct, sim) = run_one(cfg, bytes, sub);
            match fct {
                Some(secs) => {
                    stats.bucket_mut(bytes).observe(secs);
                    stats.completed += 1;
                }
                None => stats.incomplete += 1,
            }
            stats.counters.merge(&collect_sim_telemetry(&sim));
        }
    }
    stats
}

/// The two pacing-matrix scenarios: the paper's high-leverage 4G cell and
/// a fast wired baseline (same pair as the fleet campaign).
pub fn quic_scenarios() -> [PathScenario; 2] {
    [
        PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG),
        PathScenario::new(ServerSite::OracleLondon, LastHop::Wired),
    ]
}

/// Build the pacing matrix: scenarios × strategies × controllers. The
/// seed is shared across controllers within a (scenario, strategy) pair,
/// so CUBIC and CUBIC+SUSS face byte-identical path randomness.
pub fn quic_pacing_campaign(
    iters: u64,
    sizes: &[u64],
    seed_base: u64,
) -> (Campaign, Vec<QuicPacingConfig>) {
    let mut campaign = Campaign::new("ext_quic_pacing", CAMPAIGN_VERSION);
    let mut configs = Vec::new();
    for (si, scn) in quic_scenarios().into_iter().enumerate() {
        for (sti, strategy) in PacingStrategy::matrix().into_iter().enumerate() {
            let seed = seed_base + (si as u64) * 16 + sti as u64;
            for &cc in &QUIC_CCS {
                let mut cfg = QuicPacingConfig::new(scn, strategy, cc);
                cfg.iters = iters;
                cfg.sizes = sizes.to_vec();
                campaign.cell(
                    format!(
                        "quic/{}/{}/{}",
                        scn.last_hop.label(),
                        strategy.label(),
                        cc.label()
                    ),
                    cfg.canonical_params(),
                    seed,
                );
                configs.push(cfg);
            }
        }
    }
    (campaign, configs)
}

/// The rendered output of one pacing-matrix run.
pub struct QuicPacingRun {
    /// FCT percentiles by (cell, flow-size bucket).
    pub table: TextTable,
    /// Campaign manifest, with one [`FctAnnotation`] per table row.
    pub manifest: RunManifest,
    /// Per-cell results, in campaign (cell-index) order.
    pub results: Vec<QuicPacingStats>,
}

impl QuicPacingRun {
    /// Total (completed, incomplete) downloads across all cells.
    pub fn totals(&self) -> (u64, u64) {
        self.results
            .iter()
            .fold((0, 0), |(c, i), r| (c + r.completed, i + r.incomplete))
    }

    /// The p50 recorded for an annotation label, if present.
    pub fn p50(&self, label: &str) -> Option<f64> {
        self.manifest
            .annotations
            .iter()
            .find(|a| a.label == label)
            .map(|a| a.p50)
    }
}

/// Run the pacing matrix and render FCT percentiles by flow-size bucket.
/// Each (cell, bucket) group also lands in the manifest as an
/// [`FctAnnotation`], so the comparison is machine-readable.
pub fn quic_pacing_table(
    iters: u64,
    sizes: &[u64],
    seed_base: u64,
    opts: &RunnerOpts,
) -> QuicPacingRun {
    let (campaign, configs) = quic_pacing_campaign(iters, sizes, seed_base);
    let configs = std::sync::Arc::new(configs);
    let run_configs = std::sync::Arc::clone(&configs);
    let out = campaign.run(&opts.executor(), move |cell| {
        run_quic_pacing_cell(&run_configs[cell.index], cell.seed)
    });
    let mut manifest = out.manifest;
    let results: Vec<QuicPacingStats> = out
        .results
        .into_iter()
        .map(|r| r.expect("quic pacing cell failed"))
        .collect();
    let mut t = TextTable::new(vec![
        "scenario", "pacing", "cc", "bucket", "flows", "p50 s", "p90 s", "p99 s",
    ]);
    for (i, stats) in results.iter().enumerate() {
        let cfg = &configs[i];
        for (bucket, hist) in stats.buckets() {
            if hist.count() == 0 {
                continue;
            }
            let (p50, p90, p99, p999) = hist.quartet();
            t.row(vec![
                cfg.scenario.id(),
                cfg.strategy.label(),
                cfg.cc.label().to_string(),
                bucket.to_string(),
                hist.count().to_string(),
                format!("{p50:.3}"),
                format!("{p90:.3}"),
                format!("{p99:.3}"),
            ]);
            manifest.annotations.push(FctAnnotation {
                label: format!("{}/{bucket}", manifest.cells[i].label),
                n: hist.count(),
                p50,
                p90,
                p99,
                p999,
            });
        }
    }
    QuicPacingRun {
        table: t,
        manifest,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(cc: CcKind, strategy: PacingStrategy) -> QuicPacingConfig {
        let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
        let mut cfg = QuicPacingConfig::new(scn, strategy, cc);
        cfg.iters = 1;
        cfg.sizes = vec![200 * KB, MB];
        cfg
    }

    #[test]
    fn cell_completes_all_downloads() {
        let stats = run_quic_pacing_cell(&small_cfg(CcKind::Cubic, PacingStrategy::PerPacket), 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.incomplete, 0);
        assert_eq!(stats.hist_all().count(), 2);
        assert!(stats.counters.get("quic.pkts_sent").unwrap_or(0) > 0);
        // FCTs are at least one RTT.
        assert!(stats.hist_all().percentile(50.0) > 0.01);
    }

    #[test]
    fn cell_is_deterministic() {
        let cfg = small_cfg(CcKind::CubicSuss, PacingStrategy::Burst(8));
        let a = run_quic_pacing_cell(&cfg, 11);
        let b = run_quic_pacing_cell(&cfg, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_pairs_seeds_across_controllers() {
        let (campaign, configs) = quic_pacing_campaign(1, &QUIC_SIZES_QUICK, 1);
        assert_eq!(configs.len(), 12, "2 scenarios × 3 strategies × 2 ccs");
        // Adjacent cells differ only in controller and share the seed.
        for pair in campaign.cells.chunks(2) {
            assert_eq!(pair[0].seed, pair[1].seed);
            assert_ne!(pair[0].label, pair[1].label);
        }
    }
}
