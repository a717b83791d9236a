//! Figure 16 and Table 1: a long-lived large flow sharing the bottleneck
//! with a train of small flows — does accelerating the small flows'
//! slow start destabilize the elephant?

use crate::campaigns::CAMPAIGN_VERSION;
use crate::dumbbell::{run_dumbbell, DumbbellFlow, DumbbellOutcome};
use cc_algos::CcKind;
use netsim::SimTime;
use serde::{Deserialize, Serialize};
use simrunner::{Campaign, RunManifest, RunnerOpts};
use simstats::{fmt_pct, improvement, Summary, TextTable};
use std::time::Duration;
use workload::{DumbbellConfig, MB};

/// Parameters for the stability experiments.
#[derive(Debug, Clone)]
pub struct StabilityParams {
    /// Large-flow congestion controllers to test (paper: CUBIC, BBRv1,
    /// BBRv2).
    pub large_ccas: Vec<CcKind>,
    /// Bottleneck buffers in BDP multiples (paper: 1, 2).
    pub buffers: Vec<f64>,
    /// Large-flow minRTTs (paper: 25, 50, 100, 200 ms).
    pub rtts: Vec<Duration>,
    /// Large-flow size in bytes (paper's flows run tens of seconds at
    /// 50 Mbps).
    pub large_bytes: u64,
    /// Number of small flows (paper: 12).
    pub smalls: usize,
    /// Small-flow size (paper: 2 MB).
    pub small_bytes: u64,
    /// Interval between small-flow starts (paper: 2 s).
    pub small_interval: Duration,
    /// Iterations per cell (paper: 50).
    pub iters: u64,
    /// Seed base.
    pub seed_base: u64,
}

impl StabilityParams {
    /// Full-scale Table 1 grid.
    pub fn paper() -> Self {
        StabilityParams {
            large_ccas: vec![CcKind::Cubic, CcKind::Bbr, CcKind::Bbr2],
            buffers: vec![1.0, 2.0],
            rtts: [25u64, 50, 100, 200]
                .iter()
                .map(|&ms| Duration::from_millis(ms))
                .collect(),
            large_bytes: 160 * MB,
            smalls: 12,
            small_bytes: 2 * MB,
            small_interval: Duration::from_secs(2),
            // Each Table 1 cell is a 40–110 s simulated dumbbell with 13
            // flows (the BBRv1 elephant cells are slow: sustained
            // overshoot against a 1-BDP buffer); 2 seeded iterations per
            // arm keep the 24-cell grid tractable — the simulator is
            // deterministic per seed, so variance is workload-, not
            // measurement-, driven.
            iters: 2,
            seed_base: 1,
        }
    }

    /// Scaled-down variant.
    pub fn quick() -> Self {
        StabilityParams {
            large_ccas: vec![CcKind::Cubic],
            buffers: vec![1.0],
            rtts: vec![Duration::from_millis(50)],
            // Keep the elephant long relative to a CUBIC recovery epoch, as
            // in the paper (its large flows run ~25-45 s): a short elephant
            // overstates the cost of one extra loss event.
            large_bytes: 160 * MB,
            smalls: 12,
            small_bytes: 2 * MB,
            small_interval: Duration::from_secs(2),
            iters: 1,
            seed_base: 1,
        }
    }
}

/// One Table 1 cell: a (large-CCA, buffer, RTT) configuration measured
/// with small flows using SUSS off and on.
#[derive(Debug, Clone)]
pub struct StabilityCell {
    /// Large flow's controller.
    pub large_cca: CcKind,
    /// Buffer in BDP multiples.
    pub buffer_bdp: f64,
    /// Large flow's minRTT.
    pub rtt: Duration,
    /// Large-flow FCT (s), SUSS off.
    pub large_off: Summary,
    /// Mean small-flow FCT (s), SUSS off.
    pub small_off: Summary,
    /// Large-flow FCT (s), SUSS on.
    pub large_on: Summary,
    /// Mean small-flow FCT (s), SUSS on.
    pub small_on: Summary,
}

impl StabilityCell {
    /// Small-flow FCT improvement (the paper's rightmost column).
    pub fn small_improvement(&self) -> f64 {
        improvement(self.small_off.mean, self.small_on.mean)
    }
}

/// What one iteration of one configuration measures — the cached cell
/// value.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArmSample {
    /// Large-flow FCT in seconds (NaN if it never completed).
    large_fct: f64,
    /// Mean small-flow FCT in seconds.
    small_mean: f64,
}

/// One iteration of one configuration; returns (large FCT, mean small FCT).
fn one_run(
    large_cca: CcKind,
    small_cca: CcKind,
    buffer: f64,
    rtt: Duration,
    p: &StabilityParams,
    seed: u64,
) -> (f64, f64) {
    let cfg = DumbbellConfig::stability(rtt, buffer, p.smalls);
    let mut flows = vec![DumbbellFlow::download(
        large_cca,
        p.large_bytes,
        SimTime::ZERO,
    )];
    for i in 0..p.smalls {
        let start = SimTime::from_secs_f64(2.0 + p.small_interval.as_secs_f64() * i as f64);
        flows.push(DumbbellFlow::download(small_cca, p.small_bytes, start));
    }
    let out = run_dumbbell(&cfg, &flows, seed, SimTime::from_secs(600));
    let large_fct = out.flows[0].fct_secs();
    let smalls: Vec<f64> = out.flows[1..]
        .iter()
        .map(|f| f.fct_secs())
        .filter(|f| f.is_finite())
        .collect();
    let small_mean = smalls.iter().sum::<f64>() / smalls.len().max(1) as f64;
    (large_fct, small_mean)
}

/// Aggregate one arm's iteration samples the way the original serial
/// loop did: incomplete elephants are dropped (but must not all be),
/// small-flow means are kept unconditionally.
fn summarize_arm(samples: &[Option<ArmSample>]) -> (Summary, Summary) {
    let samples: Vec<&ArmSample> = samples
        .iter()
        .map(|s| s.as_ref().expect("stability cell failed"))
        .collect();
    let larges: Vec<f64> = samples
        .iter()
        .map(|s| s.large_fct)
        .filter(|l| l.is_finite())
        .collect();
    let smalls: Vec<f64> = samples.iter().map(|s| s.small_mean).collect();
    (
        Summary::of(&larges).expect("large flow must complete"),
        Summary::of(&smalls).unwrap(),
    )
}

/// Run the full Table 1 grid as one campaign: every
/// (large-CCA, buffer, RTT, SUSS arm, seed) dumbbell is an independent
/// cell — the grid's slowest cells (BBRv1 elephants against 1-BDP
/// buffers) no longer serialize the whole table.
pub fn run_with(params: &StabilityParams, opts: &RunnerOpts) -> (Vec<StabilityCell>, RunManifest) {
    let mut c = Campaign::new("stability", CAMPAIGN_VERSION);
    let mut specs: Vec<(CcKind, CcKind, f64, Duration)> = Vec::new();
    for &large_cca in &params.large_ccas {
        for &buffer in &params.buffers {
            for &rtt in &params.rtts {
                for small_cca in [CcKind::Cubic, CcKind::CubicSuss] {
                    for i in 0..params.iters {
                        c.cell(
                            format!(
                                "{}/buf{buffer}/rtt{}ms/smalls-{}/s{}",
                                large_cca.label(),
                                rtt.as_millis(),
                                small_cca.label(),
                                params.seed_base + i,
                            ),
                            format!(
                                "stability large_cc={} small_cc={} buf_bdp={buffer} \
                                 rtt_ns={} large_bytes={} smalls={} small_bytes={} \
                                 interval_ns={}",
                                large_cca.label(),
                                small_cca.label(),
                                rtt.as_nanos(),
                                params.large_bytes,
                                params.smalls,
                                params.small_bytes,
                                params.small_interval.as_nanos(),
                            ),
                            params.seed_base + i,
                        );
                        specs.push((large_cca, small_cca, buffer, rtt));
                    }
                }
            }
        }
    }
    let run_specs = specs.clone();
    let run_params = params.clone();
    let out = c.run(&opts.executor(), move |cell| {
        let (large_cca, small_cca, buffer, rtt) = run_specs[cell.index];
        let (large_fct, small_mean) =
            one_run(large_cca, small_cca, buffer, rtt, &run_params, cell.seed);
        ArmSample {
            large_fct,
            small_mean,
        }
    });
    // Reassemble per-configuration cells from the flat results, in queue
    // order: `iters` off-arm samples then `iters` on-arm samples.
    let iters = params.iters as usize;
    let mut cells = Vec::new();
    let mut arms = out.results.chunks(iters);
    for &(large_cca, _, buffer, rtt) in specs.iter().step_by(2 * iters) {
        let (large_off, small_off) = summarize_arm(arms.next().expect("off arm present"));
        let (large_on, small_on) = summarize_arm(arms.next().expect("on arm present"));
        cells.push(StabilityCell {
            large_cca,
            buffer_bdp: buffer,
            rtt,
            large_off,
            small_off,
            large_on,
            small_on,
        });
    }
    (cells, out.manifest)
}

/// Render Table 1.
pub fn to_table(cells: &[StabilityCell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "large-cca",
        "buffer(BDP)",
        "minRTT(ms)",
        "large-off(s)",
        "small-off(s)",
        "large-on(s)",
        "small-on(s)",
        "small-improv",
    ]);
    for c in cells {
        t.row(vec![
            c.large_cca.label(),
            format!("{}", c.buffer_bdp),
            format!("{}", c.rtt.as_millis()),
            format!("{:.1}", c.large_off.mean),
            format!("{:.2}", c.small_off.mean),
            format!("{:.1}", c.large_on.mean),
            format!("{:.2}", c.small_on.mean),
            fmt_pct(c.small_improvement()),
        ]);
    }
    t
}

/// Figure 16: one traced timeline of the large flow's goodput while the
/// small-flow train runs, with SUSS on for the small flows.
pub fn fig16_timeline(
    rtt: Duration,
    buffer: f64,
    p: &StabilityParams,
) -> (DumbbellOutcome, TextTable) {
    let cfg = DumbbellConfig::stability(rtt, buffer, p.smalls);
    let mut flows =
        vec![DumbbellFlow::download(CcKind::Cubic, p.large_bytes, SimTime::ZERO).traced()];
    for i in 0..p.smalls {
        let start = SimTime::from_secs_f64(2.0 + p.small_interval.as_secs_f64() * i as f64);
        flows.push(DumbbellFlow::download(
            CcKind::CubicSuss,
            p.small_bytes,
            start,
        ));
    }
    let out = run_dumbbell(&cfg, &flows, p.seed_base, SimTime::from_secs(600));
    let series = out.flows[0].delivered_series();
    let horizon = out.ended_at;
    let mut t = TextTable::new(vec!["t(s)", "large-goodput(Mbps)"]);
    let steps = 30u64;
    for k in 1..=steps {
        let ts = SimTime::from_nanos(horizon.as_nanos() * k / steps);
        let rate = series.windowed_rate(ts, SimTime::from_secs(2), 0.0);
        t.row(vec![
            format!("{:.1}", ts.as_secs_f64()),
            format!("{:.1}", rate * 8.0 / 1e6),
        ]);
    }
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suss_smalls_finish_faster_without_harming_elephant() {
        let (cells, _) = run_with(&StabilityParams::quick(), &RunnerOpts::serial());
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        // Paper Table 1: small-flow improvement is solidly positive...
        assert!(
            c.small_improvement() > 0.05,
            "small-flow improvement {:.1}%",
            c.small_improvement() * 100.0
        );
        // ...while the large flow's FCT barely moves. Single cells bounce
        // by a CUBIC recovery epoch either way (the paper's Table 1 also
        // has red cells); the bound here tolerates one extra epoch.
        // Negative = the large flow got *faster*.
        let large_change = improvement(c.large_off.mean, c.large_on.mean);
        assert!(
            large_change > -0.12,
            "large-flow FCT changed {:.1}%",
            large_change * 100.0
        );
    }

    #[test]
    fn fig16_large_flow_yields_and_reclaims() {
        let p = StabilityParams::quick();
        let (out, table) = fig16_timeline(Duration::from_millis(100), 1.0, &p);
        assert!(out.flows[0].fct_secs().is_finite());
        // All small flows complete.
        for f in &out.flows[1..] {
            assert!(f.fct_secs().is_finite(), "small flow incomplete");
        }
        assert!(table.len() >= 10);
    }
}
