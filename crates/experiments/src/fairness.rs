//! Figure 15: Jain's-index fairness dynamics when a fifth flow joins four
//! established flows, across a grid of minRTTs and bottleneck buffer
//! sizes, with SUSS on vs. off.

use crate::campaigns::CAMPAIGN_VERSION;
use crate::dumbbell::{run_dumbbell, DumbbellFlow, DumbbellOutcome};
use cc_algos::CcKind;
use netsim::SimTime;
use simrunner::{Campaign, RunManifest, RunnerOpts};
use simstats::TextTable;
use std::time::Duration;
use workload::DumbbellConfig;

/// Parameters for the Fig. 15 experiment.
#[derive(Debug, Clone)]
pub struct FairnessParams {
    /// minRTT grid (paper: 25, 50, 100, 200 ms).
    pub rtts: Vec<Duration>,
    /// Buffer grid in BDP multiples (paper: 1, 1.5, 2).
    pub buffers: Vec<f64>,
    /// When the fifth flow joins (paper: 60 s).
    pub join_at: SimTime,
    /// Observation window after the join.
    pub observe: SimTime,
    /// Goodput window for the Jain computation.
    pub window: Duration,
    /// Seed.
    pub seed: u64,
}

impl FairnessParams {
    /// Full-scale grid.
    pub fn paper() -> Self {
        FairnessParams {
            rtts: [25u64, 50, 100, 200]
                .iter()
                .map(|&ms| Duration::from_millis(ms))
                .collect(),
            buffers: vec![1.0, 1.5, 2.0],
            join_at: SimTime::from_secs(60),
            observe: SimTime::from_secs(60),
            window: Duration::from_secs(2),
            seed: 1,
        }
    }

    /// Scaled-down variant: shorter settle time, smaller grid.
    pub fn quick() -> Self {
        FairnessParams {
            rtts: vec![Duration::from_millis(50), Duration::from_millis(100)],
            buffers: vec![1.0, 2.0],
            join_at: SimTime::from_secs(8),
            observe: SimTime::from_secs(15),
            window: Duration::from_secs(2),
            seed: 1,
        }
    }
}

/// One grid cell's outcome.
#[derive(Debug)]
pub struct FairnessCell {
    /// The flow minRTT.
    pub rtt: Duration,
    /// Buffer in BDP multiples.
    pub buffer_bdp: f64,
    /// Jain series after the join (dt, F) with SUSS on.
    pub jain_on: Vec<(Duration, f64)>,
    /// Jain series after the join with SUSS off.
    pub jain_off: Vec<(Duration, f64)>,
}

impl FairnessCell {
    /// First post-join instant at which F ≥ `level` and stays there
    /// (sampled), per variant. `None` = never within the window.
    fn recovery_time(&self, series: &[(Duration, f64)], level: f64) -> Option<Duration> {
        // Require the level to hold for the remainder of the series to
        // avoid rewarding transient spikes.
        for i in 0..series.len() {
            if series[i..].iter().all(|&(_, f)| f >= level) {
                return Some(series[i].0);
            }
        }
        None
    }

    /// Recovery time with SUSS on.
    fn recovery_on(&self, level: f64) -> Option<Duration> {
        self.recovery_time(&self.jain_on, level)
    }

    /// Recovery time with SUSS off.
    fn recovery_off(&self, level: f64) -> Option<Duration> {
        self.recovery_time(&self.jain_off, level)
    }
}

fn run_cell(
    rtt: Duration,
    buffer_bdp: f64,
    kind: CcKind,
    p: &FairnessParams,
) -> Vec<(Duration, f64)> {
    let cfg = DumbbellConfig::fairness(rtt, buffer_bdp, 5);
    let mut flows = Vec::new();
    for i in 0..4u64 {
        flows.push(DumbbellFlow::download(kind, u64::MAX, SimTime::from_secs(2 * i)).traced());
    }
    flows.push(DumbbellFlow::download(kind, u64::MAX, p.join_at).traced());
    let horizon = SimTime::from_nanos(p.join_at.as_nanos() + p.observe.as_nanos());
    let out = run_dumbbell(&cfg, &flows, p.seed, horizon);
    jain_series(&out, p)
}

fn jain_series(out: &DumbbellOutcome, p: &FairnessParams) -> Vec<(Duration, f64)> {
    let step = Duration::from_millis((p.observe.as_nanos() / 24 / 1_000_000).max(250));
    let mut series = Vec::new();
    let mut dt = p.window; // need a full window of goodput first
    while dt <= Duration::from_nanos(p.observe.as_nanos()) {
        let t = p.join_at + dt;
        if let Some(f) = out.jain_at(&[0, 1, 2, 3, 4], t, SimTime::ZERO + p.window) {
            series.push((dt, f));
        }
        dt += step;
    }
    series
}

/// Run the full grid as one campaign: each (rtt, buffer, SUSS arm)
/// dumbbell is an independent cell, and its post-join Jain series is the
/// cached value.
pub fn run_with(params: &FairnessParams, opts: &RunnerOpts) -> (Vec<FairnessCell>, RunManifest) {
    let mut c = Campaign::new("fairness", CAMPAIGN_VERSION);
    let mut specs: Vec<(Duration, f64, CcKind)> = Vec::new();
    for &rtt in &params.rtts {
        for &buffer in &params.buffers {
            for kind in [CcKind::CubicSuss, CcKind::Cubic] {
                c.cell(
                    format!("rtt{}ms/buf{buffer}/{}", rtt.as_millis(), kind.label()),
                    format!(
                        "fairness rtt_ns={} buf_bdp={buffer} cc={} flows=5 \
                         join_ns={} observe_ns={} window_ns={}",
                        rtt.as_nanos(),
                        kind.label(),
                        params.join_at.as_nanos(),
                        params.observe.as_nanos(),
                        params.window.as_nanos(),
                    ),
                    params.seed,
                );
                specs.push((rtt, buffer, kind));
            }
        }
    }
    let run_specs = specs.clone();
    let run_params = params.clone();
    let out = c.run(&opts.executor(), move |cell| {
        let (rtt, buffer, kind) = run_specs[cell.index];
        run_cell(rtt, buffer, kind, &run_params)
    });
    // Reassemble (on, off) series pairs into grid cells, in queue order.
    let mut cells = Vec::new();
    let mut series = out.results.into_iter();
    for pair in specs.chunks(2) {
        let (rtt, buffer, _) = pair[0];
        cells.push(FairnessCell {
            rtt,
            buffer_bdp: buffer,
            jain_on: series
                .next()
                .expect("one series per cell")
                .expect("fairness cell failed"),
            jain_off: series
                .next()
                .expect("one series per cell")
                .expect("fairness cell failed"),
        });
    }
    (cells, out.manifest)
}

/// Render the grid summary (per-cell recovery times and final F).
pub fn to_table(cells: &[FairnessCell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "minRTT(ms)",
        "buffer(BDP)",
        "recover-on(s)",
        "recover-off(s)",
        "final-F-on",
        "final-F-off",
    ]);
    for c in cells {
        let fmt_rec = |r: Option<Duration>| {
            r.map(|d| format!("{:.1}", d.as_secs_f64()))
                .unwrap_or(">obs".into())
        };
        t.row(vec![
            format!("{}", c.rtt.as_millis()),
            format!("{}", c.buffer_bdp),
            fmt_rec(c.recovery_on(0.9)),
            fmt_rec(c.recovery_off(0.9)),
            format!(
                "{:.3}",
                c.jain_on.last().map(|&(_, f)| f).unwrap_or(f64::NAN)
            ),
            format!(
                "{:.3}",
                c.jain_off.last().map(|&(_, f)| f).unwrap_or(f64::NAN)
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suss_recovers_fairness_at_least_as_fast() {
        let mut p = FairnessParams::quick();
        p.rtts = vec![Duration::from_millis(100)];
        p.buffers = vec![1.5];
        let (cells, _) = run_with(&p, &RunnerOpts::serial());
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert!(!c.jain_on.is_empty() && !c.jain_off.is_empty());
        // Fairness ends up high in both arms...
        let final_on = c.jain_on.last().unwrap().1;
        assert!(final_on > 0.75, "final F on {final_on}");
        // ...and the SUSS arm's average post-join F is not worse.
        let avg = |s: &[(Duration, f64)]| s.iter().map(|&(_, f)| f).sum::<f64>() / s.len() as f64;
        let (a_on, a_off) = (avg(&c.jain_on), avg(&c.jain_off));
        assert!(
            a_on >= a_off - 0.05,
            "mean post-join F: on {a_on:.3} off {a_off:.3}"
        );
    }
}
