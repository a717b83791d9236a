//! Chaos campaign: SUSS vs CUBIC under deterministic fault injection.
//!
//! The paper's safety argument (§5) is that SUSS only accelerates when
//! spare capacity is *measured*, so it should degrade no worse than
//! stock CUBIC when the path misbehaves. This module stresses that claim
//! with `netsim`'s [`FaultPlan`] fault families — bursty Gilbert–Elliott
//! loss, link flaps long enough to force RTOs, late-delivery reordering,
//! and route-change RTT steps — and reports an FCT/loss-recovery table
//! per family.
//!
//! Chaos cells run with [`simrunner::RunnerOpts::record_failures`], so a cell that
//! panics or hangs is recorded in the manifest instead of killing the
//! campaign. Two environment hooks exist purely to exercise that
//! machinery end-to-end (`scripts/check.sh` uses them):
//!
//! * `SUSS_CHAOS_PANIC_CELL=<family>:<cc>:<seed>` — the matching cell
//!   panics;
//! * `SUSS_CHAOS_HANG_CELL=<family>:<cc>:<seed>` — the matching cell
//!   sleeps before simulating, so the wall-clock watchdog
//!   (`SUSS_CELL_TIMEOUT_MS`) abandons it. The sleep is bounded at ~30 s,
//!   so a run without a cell timeout still terminates.

use crate::campaigns::FlowGrid;
use crate::runner::{collect_sim_telemetry, FlowOutcome, IW, MSS};
use cc_algos::CcKind;
use netsim::{FaultPlan, FlapWindow, FlowId, GilbertElliott, Sim, SimTime};
use simrunner::{RunManifest, RunnerOpts};
use simstats::{fmt_pct, improvement, TextTable};
use std::time::Duration;
use tcp_sim::flow::{install_flow, wire_flow};
use tcp_sim::receiver::AckPolicy;
use tcp_sim::sender::{SenderConfig, SenderEndpoint};
use workload::{LastHop, PathScenario, ServerSite};

/// The fault families the chaos table sweeps, one row each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Gilbert–Elliott bursty loss (mean burst ≈ 4 packets).
    GeBurst,
    /// A link outage long enough to guarantee an RTO (the sender's
    /// minimum RTO is 200 ms; the outage is 700 ms).
    Flap,
    /// Probabilistic late delivery — packets overtake, producing dupacks.
    Reorder,
    /// A mid-flow one-way-delay step (route change).
    RouteChange,
}

impl FaultFamily {
    /// All families, in table order.
    pub const ALL: [FaultFamily; 4] = [
        FaultFamily::GeBurst,
        FaultFamily::Flap,
        FaultFamily::Reorder,
        FaultFamily::RouteChange,
    ];

    /// Stable key used in cell labels and the injection env hooks.
    pub fn key(self) -> &'static str {
        match self {
            FaultFamily::GeBurst => "ge-burst",
            FaultFamily::Flap => "flap",
            FaultFamily::Reorder => "reorder",
            FaultFamily::RouteChange => "route-change",
        }
    }

    /// The family's fault schedule, applied to the data direction.
    ///
    /// Magnitudes are calibrated for the chaos path (45 Mbps 4G,
    /// ~200 ms RTT): the flap outage exceeds the 200 ms minimum RTO, and
    /// the reorder lateness spans several packet serializations so held
    /// packets are genuinely overtaken.
    pub fn plan(self) -> FaultPlan {
        match self {
            FaultFamily::GeBurst => {
                FaultPlan::new().with_ge(GilbertElliott::gilbert(0.01, 0.25, 0.5))
            }
            FaultFamily::Flap => FaultPlan::new().with_flaps(vec![FlapWindow {
                down: SimTime::from_millis(400),
                up: SimTime::from_millis(1100),
            }]),
            FaultFamily::Reorder => FaultPlan::new().with_reorder(0.02, Duration::from_millis(5)),
            FaultFamily::RouteChange => FaultPlan::new()
                .with_delay_steps(vec![(SimTime::from_millis(500), Duration::from_millis(30))]),
        }
    }
}

/// The path every chaos cell runs on: the deep-buffered 4G scenario,
/// where outages strand the most queue and jitter is already hostile.
pub fn chaos_scenario() -> PathScenario {
    PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG)
}

/// Run one flow over `scenario` with `plan` injected on the data
/// direction (ACK path stays clean, mirroring downlink impairments).
pub fn run_flow_faulted(
    scenario: &PathScenario,
    kind: CcKind,
    flow_bytes: u64,
    seed: u64,
    plan: &FaultPlan,
) -> FlowOutcome {
    let mut sim = Sim::new(seed);
    let cfg = SenderConfig::bulk(flow_bytes);
    let ends = install_flow(
        &mut sim,
        FlowId(1),
        cfg,
        cc_algos::make_controller(kind, IW, MSS),
        AckPolicy::default(),
    );
    let data = scenario.data_link().with_faults(plan.clone());
    let s2r = sim.add_half_link(ends.sender, ends.receiver, data);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, scenario.ack_link());
    wire_flow(&mut sim, ends, s2r, r2s);
    sim.run_while(SimTime::from_secs(600), |sim| {
        !sim.agent::<SenderEndpoint>(ends.sender).is_done()
    });
    let drops = sim.link_queue_stats(s2r).dropped_pkts;
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    FlowOutcome {
        fct: snd.stats.fct(),
        fct_receiver: snd.stats.fct(),
        segs_sent: snd.stats.segs_sent,
        segs_retransmitted: snd.stats.segs_retransmitted,
        retransmit_rate: snd.stats.retransmit_rate(),
        bottleneck_drops: drops,
        exit_cwnd: None,
        suss_pacings: 0,
        counters: collect_sim_telemetry(&sim),
        trace: snd.trace.clone(),
    }
}

/// A parsed `<family>:<cc>:<seed>` injection target from the env.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Injection {
    family: String,
    cc: String,
    seed: u64,
}

impl Injection {
    fn from_env(var: &str) -> Option<Injection> {
        Self::parse(&std::env::var(var).ok()?)
    }

    fn parse(spec: &str) -> Option<Injection> {
        let mut it = spec.splitn(3, ':');
        let family = it.next()?.trim().to_string();
        let cc = it.next()?.trim().to_string();
        let seed = it.next()?.trim().parse().ok()?;
        Some(Injection { family, cc, seed })
    }

    fn matches(&self, family: FaultFamily, kind: CcKind, seed: u64) -> bool {
        self.family == family.key() && self.cc == kind.label() && self.seed == seed
    }
}

/// SUSS vs CUBIC under each fault family: FCT, loss recovery, and how
/// many cells survived. Runs resiliently — check
/// [`RunManifest::all_ok`] before trusting the numbers, and expect the
/// table to render `-` for arms whose every cell failed.
pub fn chaos_table(
    flow_bytes: u64,
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    let scn = chaos_scenario();
    let panic_inj = Injection::from_env("SUSS_CHAOS_PANIC_CELL");
    let hang_inj = Injection::from_env("SUSS_CHAOS_HANG_CELL");

    let mut grid = FlowGrid::new("ext_chaos");
    let mut arm = |family: FaultFamily, kind: CcKind| {
        let plan = family.plan();
        let panic_inj = panic_inj.clone();
        let hang_inj = hang_inj.clone();
        grid.batch_fn(
            &format!("chaos/{}/{}", family.key(), kind.label()),
            &format!(
                "{} cc={} size={flow_bytes} {}",
                scn.canonical_params(),
                kind.label(),
                plan.canonical_params()
            ),
            iters,
            seed_base,
            move |seed| {
                if panic_inj
                    .as_ref()
                    .is_some_and(|i| i.matches(family, kind, seed))
                {
                    panic!(
                        "chaos: injected panic in {}/{}/s{seed}",
                        family.key(),
                        kind.label()
                    );
                }
                if hang_inj
                    .as_ref()
                    .is_some_and(|i| i.matches(family, kind, seed))
                {
                    // Outlast the wall-clock budget so the watchdog
                    // abandons the cell; bounded so a run without a
                    // cell timeout still terminates.
                    for _ in 0..300 {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
                run_flow_faulted(&scn, kind, flow_bytes, seed, &plan)
            },
        )
    };
    let batches: Vec<_> = FaultFamily::ALL
        .iter()
        .map(|&f| (f, arm(f, CcKind::Cubic), arm(f, CcKind::CubicSuss)))
        .collect();
    let run = grid.run(&opts.clone().record_failures());

    let mut t = TextTable::new(vec![
        "fault",
        "cubic(s)",
        "suss(s)",
        "improvement",
        "rtos c/s",
        "fastrtx c/s",
        "ok",
    ]);
    let fmt_mean = |s: Option<simstats::Summary>| match s {
        Some(s) => format!("{:.3}", s.mean),
        None => "-".to_string(),
    };
    for (family, cb, sb) in batches {
        let (c, s) = (run.try_fct(cb), run.try_fct(sb));
        let imp = match (&c, &s) {
            (Some(c), Some(s)) => fmt_pct(improvement(c.mean, s.mean)),
            _ => "-".to_string(),
        };
        t.row(vec![
            family.key().to_string(),
            fmt_mean(c),
            fmt_mean(s),
            imp,
            format!(
                "{:.1}/{:.1}",
                run.counter_mean(cb, simtrace::names::TCP_RTOS),
                run.counter_mean(sb, simtrace::names::TCP_RTOS)
            ),
            format!(
                "{:.1}/{:.1}",
                run.counter_mean(cb, simtrace::names::TCP_FAST_RETRANSMITS),
                run.counter_mean(sb, simtrace::names::TCP_FAST_RETRANSMITS)
            ),
            format!(
                "{}/{}",
                run.survivors(cb) + run.survivors(sb),
                2 * iters as usize
            ),
        ]);
    }
    (t, run.manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::MB;

    #[test]
    fn injection_spec_parses_and_matches() {
        let i = Injection::parse("flap:cubic:3").unwrap();
        assert!(i.matches(FaultFamily::Flap, CcKind::Cubic, 3));
        assert!(!i.matches(FaultFamily::Flap, CcKind::Cubic, 4));
        assert!(!i.matches(FaultFamily::GeBurst, CcKind::Cubic, 3));
        assert!(!i.matches(FaultFamily::Flap, CcKind::CubicSuss, 3));
        assert!(Injection::parse("flap:cubic").is_none());
        assert!(Injection::parse("flap:cubic:x").is_none());
    }

    #[test]
    fn flap_outage_forces_rtos() {
        let scn = chaos_scenario();
        let out = run_flow_faulted(&scn, CcKind::Cubic, 4 * MB, 1, &FaultFamily::Flap.plan());
        assert!(out.fct_secs().is_finite(), "flow must complete after flap");
        let rtos = out.counters.get(simtrace::names::TCP_RTOS).unwrap_or(0);
        assert!(rtos > 0, "a 700ms outage must trigger at least one RTO");
        let flaps = out
            .counters
            .get(simtrace::names::NET_LINK_FLAPS)
            .unwrap_or(0);
        assert!(flaps > 0, "flap transitions should be counted");
    }

    #[test]
    fn ge_bursts_force_fast_retransmits() {
        let scn = chaos_scenario();
        let out = run_flow_faulted(&scn, CcKind::Cubic, 4 * MB, 1, &FaultFamily::GeBurst.plan());
        assert!(out.fct_secs().is_finite());
        let fr = out
            .counters
            .get(simtrace::names::TCP_FAST_RETRANSMITS)
            .unwrap_or(0);
        assert!(fr > 0, "burst loss must exercise fast retransmit");
        let injected = out
            .counters
            .get(simtrace::names::NET_FAULTS_INJECTED)
            .unwrap_or(0);
        assert!(injected > 0, "GE losses should be counted as injected");
    }

    #[test]
    fn chaos_table_runs_clean_and_all_ok() {
        let (t, manifest) = chaos_table(MB, 1, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), FaultFamily::ALL.len());
        // 4 families × 2 arms × 1 iter.
        assert_eq!(manifest.total_cells, 8);
        assert!(manifest.all_ok(), "clean chaos run must not fail cells");
    }

    #[test]
    fn panicking_cell_fails_alone_and_leaves_the_rest_byte_identical() {
        use crate::campaigns::FlowGrid;

        let scn = chaos_scenario();
        let grid = |poison_seed: Option<u64>| {
            let plan = FaultFamily::GeBurst.plan();
            let mut g = FlowGrid::new("chaos-panic-unit");
            g.batch_fn(
                "chaos-unit/ge-burst",
                "unit ge-burst cc=cubic+suss size=256K",
                4,
                1,
                move |seed| {
                    if Some(seed) == poison_seed {
                        panic!("unit: injected panic for seed {seed}");
                    }
                    run_flow_faulted(&scn, CcKind::CubicSuss, 256 * 1024, seed, &plan)
                },
            );
            g
        };
        let clean = grid(None).run(&RunnerOpts::serial().record_failures());
        assert!(clean.all_ok());

        let hurt = grid(Some(3)).run(&RunnerOpts::serial().record_failures());
        assert_eq!(hurt.manifest.cells_failed, 1);
        let rec = &hurt.manifest.cells[2]; // seeds 1..=4, seed 3 is index 2
        assert_eq!(rec.seed, 3);
        assert!(!rec.status.succeeded(), "poisoned cell must fail");
        assert!(rec.error.contains("injected panic for seed 3"));
        assert!(hurt.stats[2].is_none());
        for (i, (c, h)) in clean.stats.iter().zip(&hurt.stats).enumerate() {
            if i == 2 {
                continue;
            }
            let (c, h) = (c.as_ref().unwrap(), h.as_ref().unwrap());
            assert_eq!(
                c.fct_secs.to_bits(),
                h.fct_secs.to_bits(),
                "surviving cell {i} must be byte-identical to the clean run"
            );
            assert_eq!(c.counters, h.counters);
        }
    }

    #[test]
    fn suss_is_safe_under_every_family() {
        // The paper's safety claim: faults must not make SUSS *much*
        // worse than stock CUBIC (paired seeds, generous 15% head-room
        // for single-seed noise).
        let scn = chaos_scenario();
        for family in FaultFamily::ALL {
            let plan = family.plan();
            let c = run_flow_faulted(&scn, CcKind::Cubic, MB, 7, &plan);
            let s = run_flow_faulted(&scn, CcKind::CubicSuss, MB, 7, &plan);
            assert!(
                s.fct_secs() <= c.fct_secs() * 1.15,
                "{}: suss {:.3}s vs cubic {:.3}s",
                family.key(),
                s.fct_secs(),
                c.fct_secs()
            );
        }
    }
}
