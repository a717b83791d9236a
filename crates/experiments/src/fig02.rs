//! Figure 2: a new flow joining four established flows at a congested
//! bottleneck — CUBIC's premature slow-start exit vs. BBR's loss
//! tolerance.

use crate::dumbbell::{run_dumbbell, DumbbellFlow, DumbbellOutcome};
use cc_algos::CcKind;
use netsim::SimTime;
use simstats::TextTable;
use std::time::Duration;
use workload::{testbed::BOTTLENECK, DumbbellConfig};

/// Parameters for the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct Fig02Params {
    /// When the fifth (new) flow starts.
    pub join_at: SimTime,
    /// How long to observe after the join.
    pub observe: SimTime,
    /// Goodput sampling window.
    pub window: Duration,
    /// Seed.
    pub seed: u64,
}

impl Fig02Params {
    /// Full-scale run.
    pub fn paper() -> Self {
        Fig02Params {
            join_at: SimTime::from_secs(20),
            observe: SimTime::from_secs(40),
            window: Duration::from_millis(1000),
            seed: 1,
        }
    }

    /// Scaled-down variant.
    pub fn quick() -> Self {
        Fig02Params {
            join_at: SimTime::from_secs(5),
            observe: SimTime::from_secs(20),
            window: Duration::from_millis(1000),
            seed: 1,
        }
    }
}

/// Result: goodput timeline of the joining flow under each CCA.
#[derive(Debug)]
pub struct Fig02Result {
    /// All five flows using CUBIC.
    pub cubic: DumbbellOutcome,
    /// All five flows using BBR.
    pub bbr: DumbbellOutcome,
    /// Parameters.
    pub params: Fig02Params,
}

fn run_one(kind: CcKind, p: &Fig02Params) -> DumbbellOutcome {
    let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, 5);
    let mut flows = Vec::new();
    for i in 0..4 {
        flows.push(
            DumbbellFlow::download(kind, u64::MAX, SimTime::from_secs(i as u64 / 2)).traced(),
        );
    }
    flows.push(DumbbellFlow::download(kind, u64::MAX, p.join_at).traced());
    let horizon = SimTime::from_nanos(p.join_at.as_nanos() + p.observe.as_nanos());
    run_dumbbell(&cfg, &flows, p.seed, horizon)
}

/// Run the experiment.
pub fn run(params: &Fig02Params) -> Fig02Result {
    Fig02Result {
        cubic: run_one(CcKind::Cubic, params),
        bbr: run_one(CcKind::Bbr, params),
        params: params.clone(),
    }
}

impl Fig02Result {
    /// Fair share of the 50 Mbps bottleneck among 5 flows, bytes/sec.
    fn fair_share(&self) -> f64 {
        BOTTLENECK.bytes_per_sec() / 5.0
    }

    /// Goodput (bytes/sec) of the joining flow at `dt` after its start.
    fn join_goodput(&self, out: &DumbbellOutcome, dt: Duration) -> f64 {
        let t = self.params.join_at + dt;
        out.flows[4]
            .delivered_series()
            .windowed_rate(t, SimTime::ZERO + self.params.window, 0.0)
    }

    /// Time (after joining) for the new flow to first reach `frac` of its
    /// fair share, if it did within the observation window.
    pub fn time_to_share(&self, out: &DumbbellOutcome, frac: f64) -> Option<Duration> {
        let target = self.fair_share() * frac;
        let mut dt = Duration::from_millis(250);
        while dt <= Duration::from_nanos(self.params.observe.as_nanos()) {
            if self.join_goodput(out, dt) >= target {
                return Some(dt);
            }
            dt += Duration::from_millis(250);
        }
        None
    }

    /// The series the paper plots: new-flow goodput over time since join.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["t-after-join(s)", "cubic(Mbps)", "bbr(Mbps)"]);
        let mut dt = Duration::ZERO;
        while dt <= Duration::from_nanos(self.params.observe.as_nanos()) {
            t.row(vec![
                format!("{:.2}", dt.as_secs_f64()),
                format!("{:.2}", self.join_goodput(&self.cubic, dt) * 8.0 / 1e6),
                format!("{:.2}", self.join_goodput(&self.bbr, dt) * 8.0 / 1e6),
            ]);
            dt += Duration::from_millis((self.params.observe.as_nanos() / 20 / 1_000_000).max(250));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_flows_eventually_claim_bandwidth() {
        let r = run(&Fig02Params::quick());
        // Both CCAs move data by the end of the observation window.
        let late = Duration::from_secs(18);
        let g_cubic = r.join_goodput(&r.cubic, late);
        let g_bbr = r.join_goodput(&r.bbr, late);
        assert!(g_cubic > 0.0, "cubic joiner starved");
        assert!(g_bbr > 0.0, "bbr joiner starved");
        // The BBR joiner ramps monotonically-ish: late goodput well above
        // its early goodput (Fig. 2b's slow-but-steady climb).
        let g_bbr_early = r.join_goodput(&r.bbr, Duration::from_secs(4));
        assert!(
            g_bbr >= g_bbr_early,
            "bbr goodput should climb: early {g_bbr_early:.0} late {g_bbr:.0}"
        );
        // Fair-share bookkeeping works.
        assert!((r.fair_share() - 1.25e6).abs() < 1.0);
        // The series table renders.
        assert!(r.to_table().len() >= 10);
    }
}
