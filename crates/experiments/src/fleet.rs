//! Fleet campaign: many concurrent flows behind one shared bottleneck.
//!
//! The single-flow experiments measure one download on an idle path; a
//! fleet cell instead models the paper's deployment concern — what SUSS
//! does to *tail* flow-completion times when an open-loop stream of
//! heavy-tailed web flows (see [`workload::FleetWorkload`]) shares the
//! access bottleneck. Flows arrive as a Poisson process, run concurrently
//! through a two-router dumbbell, and tear down on completion, so memory
//! stays O(peak concurrency) however many flows a cell generates.
//!
//! Topology per cell (slots reused across flows):
//!
//! ```text
//! sender_i ──edge──► r1 ══data link (scenario bottleneck)══► r2 ──edge──► receiver_i
//!          ◄──edge── r1 ◄═════════ack link (clean)══════════ r2 ◄──edge──
//! ```
//!
//! Edge links are 10 Gbps and near-zero delay, so the scenario's data
//! link is the only contended resource — exactly the paper's "many users
//! behind one access link" picture. FCTs aggregate into per-flow-size
//! [`LogHistogram`]s whose p50/p90/p99/p99.9 land in the run manifest as
//! [`FctAnnotation`]s.

use crate::campaigns::CAMPAIGN_VERSION;
use crate::runner::{collect_sim_telemetry, IW, MSS};
use crate::scope::{attach_link_scope, emit_scope_annotations};
use cc_algos::CcKind;
use netsim::{Bandwidth, EngineConfig, FlowId, LinkId, LinkSpec, Router, Sim, SimTime};
use serde::{Deserialize, Serialize};
use simrunner::{Campaign, FctAnnotation, RunManifest, RunnerOpts};
use simstats::{LogHistogram, TextTable};
use simtrace::names;
use std::rc::Rc;
use std::time::Duration;
use tcp_sim::flow::{install_flow, respawn_flow, teardown_flow, wire_flow, FlowEnds};
use tcp_sim::receiver::AckPolicy;
use tcp_sim::sender::{SenderConfig, SenderEndpoint};
use workload::{FleetWorkload, LastHop, PathScenario, ServerSite, KB, MB};

/// Offered-load sweep points (fraction of the bottleneck).
pub const FLEET_LOADS: [f64; 3] = [0.3, 0.6, 0.9];

/// Default bottleneck scope-sampling cadence for fleet sweeps: every
/// 64th packet keeps per-cell overhead negligible while still collecting
/// thousands of samples per series. Sampling is free (observation only),
/// so sweeps run with it on by default.
pub const FLEET_SCOPE_SAMPLING: u64 = 64;

/// Controllers compared in the fleet sweep.
pub const FLEET_CCS: [CcKind; 3] = [CcKind::Cubic, CcKind::CubicSuss, CcKind::Bbr];

/// Upper edge of the small-flow ("mice") FCT bucket.
pub const BUCKET_SMALL_MAX: u64 = 200 * KB;

/// Upper edge of the mid-flow bucket — the paper's short-download regime
/// where slow-start dominates FCT and SUSS has the most leverage.
pub const BUCKET_MID_MAX: u64 = 2 * MB;

/// Per-slot edge links: fat and fast enough to never be the bottleneck.
const EDGE_RATE: Bandwidth = Bandwidth::from_gbps(10);
const EDGE_DELAY: Duration = Duration::from_micros(1);

/// One fleet cell: a scenario, a controller, and a workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Path scenario supplying the bottleneck data link and ack link.
    pub scenario: PathScenario,
    /// Congestion controller every flow in the fleet runs.
    pub cc: CcKind,
    /// Arrival process and size distribution.
    pub workload: FleetWorkload,
    /// Grace period after the last arrival before incomplete flows are
    /// expired.
    pub drain: Duration,
    /// Request per-flow ConnTrace sampling (subject to the cap below).
    pub trace_sampling: bool,
    /// Concurrent-flow threshold above which requested trace sampling is
    /// suppressed (counted under `fleet.traces_suppressed`), keeping
    /// memory bounded in big cells.
    pub trace_flow_cap: usize,
    /// Fieldless and ignored here. Exists only for the benchmark package
    /// under `perfbench/`, which passes it to `Sim::with_engine`.
    pub engine: EngineConfig,
    /// Sample the bottleneck's queue depth / utilization / sojourn every
    /// N-th packet into manifest [`simtrace::ScopeAnnotation`]s (0 = off).
    /// Pure observation: excluded from `canonical_params` because it can
    /// never influence [`FleetStats`].
    pub scope_sampling: u64,
}

impl FleetConfig {
    /// A fleet cell with the default drain (30 s) and tracing off.
    pub fn new(scenario: PathScenario, cc: CcKind, workload: FleetWorkload) -> Self {
        FleetConfig {
            scenario,
            cc,
            workload,
            drain: Duration::from_secs(30),
            trace_sampling: false,
            trace_flow_cap: 64,
            engine: EngineConfig,
            scope_sampling: 0,
        }
    }

    /// Canonical parameter string for cache identity: everything that can
    /// influence the cell's [`FleetStats`].
    pub fn canonical_params(&self) -> String {
        format!(
            "{} cc={} {} drain={}s trace={}cap{}",
            self.scenario.canonical_params(),
            self.cc.label(),
            self.workload.canonical_params(),
            self.drain.as_secs(),
            self.trace_sampling,
            self.trace_flow_cap,
        )
    }
}

/// Everything measured from one fleet cell. Serde-derived so campaign
/// cells cache and merge across workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Flows spawned (arrivals realized as live senders).
    pub spawned: u64,
    /// Flows fully delivered, with an FCT sample.
    pub completed: u64,
    /// Flows still incomplete at the drain horizon (no FCT sample).
    pub expired: u64,
    /// Peak concurrent live flows.
    pub peak_concurrent: u64,
    /// FCT histogram for flows ≤ [`BUCKET_SMALL_MAX`].
    pub hist_small: LogHistogram,
    /// FCT histogram for flows in ([`BUCKET_SMALL_MAX`], [`BUCKET_MID_MAX`]].
    pub hist_mid: LogHistogram,
    /// FCT histogram for flows > [`BUCKET_MID_MAX`].
    pub hist_large: LogHistogram,
    /// Simulation-wide counter snapshot at cell end (`fleet.*`, `tcp.*`,
    /// `net.*` — see `simtrace::names`).
    pub counters: simtrace::CounterSnapshot,
}

impl FleetStats {
    fn new() -> Self {
        FleetStats {
            spawned: 0,
            completed: 0,
            expired: 0,
            peak_concurrent: 0,
            hist_small: LogHistogram::new(),
            hist_mid: LogHistogram::new(),
            hist_large: LogHistogram::new(),
            counters: simtrace::CounterSnapshot::default(),
        }
    }

    /// The labelled flow-size buckets, small to large.
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

/// A reusable endpoint slot: sender/receiver node ids plus their edge
/// wiring, built once and repopulated by successive flows.
struct Slot {
    ends: FlowEnds,
    s_egress: LinkId,
    r_egress: LinkId,
    spawned_at: SimTime,
    bytes: u64,
    busy: bool,
}

/// Scan live slots and tear down every finished flow, recording its FCT.
fn harvest(sim: &mut Sim, slots: &mut [Slot], stats: &mut FleetStats, done: &simtrace::Counter) {
    let _span = simtrace::prof::span("fleet/harvest");
    for slot in slots.iter_mut().filter(|s| s.busy) {
        if !sim.agent::<SenderEndpoint>(slot.ends.sender).is_done() {
            continue;
        }
        let at = teardown_flow(sim, slot.ends).expect("fully-acked flow must have completed");
        let fct = at.saturating_since(slot.spawned_at).as_secs_f64();
        stats.bucket_mut(slot.bytes).observe(fct);
        stats.completed += 1;
        done.inc();
        slot.busy = false;
    }
}

/// Run one fleet cell to completion and aggregate its FCT distribution.
///
/// Deterministic: the result is a pure function of `(cfg, seed)` —
/// identical at any worker count.
pub fn run_fleet_cell(cfg: &FleetConfig, seed: u64) -> FleetStats {
    let _cell_span = simtrace::prof::span("fleet/cell");
    let mut sim = Sim::new(seed);
    let metrics = sim.metrics().clone();
    let ctr_spawned = metrics.counter(names::FLEET_FLOWS_SPAWNED);
    let ctr_completed = metrics.counter(names::FLEET_FLOWS_COMPLETED);
    let ctr_expired = metrics.counter(names::FLEET_FLOWS_EXPIRED);
    let ctr_slots = metrics.counter(names::FLEET_SLOTS_CREATED);
    let ctr_reuses = metrics.counter(names::FLEET_SLOT_REUSES);
    let ctr_suppressed = metrics.counter(names::FLEET_TRACES_SUPPRESSED);

    // The shared dumbbell core: the scenario's data link is the one
    // contended resource; the reverse link carries acks cleanly.
    let r1 = sim.add_agent(Box::new(Router::new()));
    let r2 = sim.add_agent(Box::new(Router::new()));
    let data = sim.add_half_link(r1, r2, cfg.scenario.data_link());
    let ack = sim.add_half_link(r2, r1, cfg.scenario.ack_link());
    let scope =
        (cfg.scope_sampling > 0).then(|| attach_link_scope(&mut sim, data, cfg.scope_sampling));
    sim.agent_mut::<Router>(r1).set_default_route(data);
    sim.agent_mut::<Router>(r2).set_default_route(ack);

    let tally = Rc::new(std::cell::Cell::new(0u64));
    let mut slots: Vec<Slot> = Vec::new();
    let mut stats = FleetStats::new();
    let mut last_arrival = SimTime::ZERO;

    for (next_flow, arrival) in (1u64..).zip(cfg.workload.arrivals(seed)) {
        sim.run_until(arrival.at);
        last_arrival = arrival.at;
        harvest(&mut sim, &mut slots, &mut stats, &ctr_completed);

        let active = slots.iter().filter(|s| s.busy).count();
        let sampled = cfg.trace_sampling && active < cfg.trace_flow_cap;
        if cfg.trace_sampling && !sampled {
            ctr_suppressed.inc();
        }
        let mut scfg = SenderConfig::bulk(arrival.bytes);
        scfg.start_at = arrival.at;
        scfg.trace_sampling = sampled;
        let flow = FlowId(next_flow);
        let cc = cc_algos::make_controller(cfg.cc, IW, MSS);

        let ends = if let Some(i) = slots.iter().position(|s| !s.busy) {
            // Recycle a retired slot: same nodes, links, and routes.
            let (prev, s_eg, r_eg) = (slots[i].ends, slots[i].s_egress, slots[i].r_egress);
            let ends = respawn_flow(&mut sim, prev, flow, scfg, cc, AckPolicy::default());
            wire_flow(&mut sim, ends, s_eg, r_eg);
            let slot = &mut slots[i];
            slot.ends = ends;
            slot.spawned_at = arrival.at;
            slot.bytes = arrival.bytes;
            slot.busy = true;
            ctr_reuses.inc();
            ends
        } else {
            // Grow the pool: fresh endpoints, edge links, and routes.
            let ends = install_flow(&mut sim, flow, scfg, cc, AckPolicy::default());
            let edge = || LinkSpec::clean(EDGE_RATE, EDGE_DELAY);
            let s_up = sim.add_half_link(ends.sender, r1, edge());
            let s_down = sim.add_half_link(r1, ends.sender, edge());
            let r_up = sim.add_half_link(ends.receiver, r2, edge());
            let r_down = sim.add_half_link(r2, ends.receiver, edge());
            sim.agent_mut::<Router>(r1).add_route(ends.sender, s_down);
            sim.agent_mut::<Router>(r2).add_route(ends.receiver, r_down);
            wire_flow(&mut sim, ends, s_up, r_up);
            slots.push(Slot {
                ends,
                s_egress: s_up,
                r_egress: r_up,
                spawned_at: arrival.at,
                bytes: arrival.bytes,
                busy: true,
            });
            ctr_slots.inc();
            ends
        };
        sim.agent_mut::<SenderEndpoint>(ends.sender)
            .notify_completion(tally.clone());
        ctr_spawned.inc();
        stats.spawned += 1;
        let live = slots.iter().filter(|s| s.busy).count() as u64;
        stats.peak_concurrent = stats.peak_concurrent.max(live);
    }

    // Drain: run until every spawned flow completes or the grace horizon
    // passes, then expire whatever is left.
    let spawned = stats.spawned;
    let watch = tally.clone();
    sim.run_while(last_arrival + cfg.drain, move |_| watch.get() < spawned);
    harvest(&mut sim, &mut slots, &mut stats, &ctr_completed);
    for slot in slots.iter_mut().filter(|s| s.busy) {
        teardown_flow(&mut sim, slot.ends);
        slot.busy = false;
        stats.expired += 1;
        ctr_expired.inc();
    }

    if let Some(hists) = &scope {
        let prefix = format!(
            "scope/{}/{}/load{}",
            cfg.scenario.id(),
            cfg.cc.label(),
            cfg.workload.load
        );
        emit_scope_annotations(&prefix, hists);
    }
    stats.counters = collect_sim_telemetry(&sim);
    stats
}

/// The two fleet scenarios: the paper's high-leverage 4G cell (deep
/// buffer, long RTT) and a fast wired baseline.
pub fn fleet_scenarios() -> [PathScenario; 2] {
    [
        PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG),
        PathScenario::new(ServerSite::OracleLondon, LastHop::Wired),
    ]
}

/// Build the fleet sweep: scenarios × loads × controllers, `n_flows` per
/// cell. The seed is shared across controllers within a (scenario, load)
/// pair, so every controller faces the byte-identical arrival sequence —
/// the fleet version of the paper's paired A/B runs.
pub fn fleet_campaign(n_flows: u64, seed_base: u64) -> (Campaign, Vec<FleetConfig>) {
    let mut campaign = Campaign::new("ext_fleet", CAMPAIGN_VERSION);
    let mut configs = Vec::new();
    for (si, scn) in fleet_scenarios().into_iter().enumerate() {
        for (li, &load) in FLEET_LOADS.iter().enumerate() {
            let seed = seed_base + (si as u64) * 8 + li as u64;
            for &cc in &FLEET_CCS {
                let mut cfg =
                    FleetConfig::new(scn, cc, FleetWorkload::web(load, scn.bottleneck, n_flows));
                cfg.scope_sampling = FLEET_SCOPE_SAMPLING;
                campaign.cell(
                    format!("fleet/{}/{}/load{load}", scn.last_hop.label(), cc.label()),
                    cfg.canonical_params(),
                    seed,
                );
                configs.push(cfg);
            }
        }
    }
    (campaign, configs)
}

/// The rendered output of one fleet sweep.
pub struct FleetRun {
    /// FCT percentiles by (cell, flow-size bucket).
    pub table: TextTable,
    /// Campaign manifest, with one [`FctAnnotation`] per table row.
    pub manifest: RunManifest,
    /// Per-cell results, in campaign (cell-index) order.
    pub results: Vec<FleetStats>,
}

impl FleetRun {
    /// Total (spawned, completed, expired) flows across all cells.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.results.iter().fold((0, 0, 0), |(s, c, e), r| {
            (s + r.spawned, c + r.completed, e + r.expired)
        })
    }
}

/// Run the fleet sweep and render FCT percentiles by flow-size bucket.
/// Each (cell, bucket) group also lands in the manifest as an
/// [`FctAnnotation`], so the curves are machine-readable.
pub fn fleet_table(n_flows: u64, seed_base: u64, opts: &RunnerOpts) -> FleetRun {
    let (campaign, configs) = fleet_campaign(n_flows, seed_base);
    let configs = std::sync::Arc::new(configs);
    let run_configs = std::sync::Arc::clone(&configs);
    let out = campaign.run(&opts.executor(), move |cell| {
        run_fleet_cell(&run_configs[cell.index], cell.seed)
    });
    let mut manifest = out.manifest;
    let results: Vec<FleetStats> = out
        .results
        .into_iter()
        .map(|r| r.expect("fleet cell failed"))
        .collect();
    let mut t = TextTable::new(vec![
        "scenario", "cc", "load", "bucket", "flows", "p50 s", "p90 s", "p99 s", "expired",
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
                cfg.cc.label().to_string(),
                format!("{:.1}", cfg.workload.load),
                bucket.to_string(),
                hist.count().to_string(),
                format!("{p50:.3}"),
                format!("{p90:.3}"),
                format!("{p99:.3}"),
                stats.expired.to_string(),
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
    FleetRun {
        table: t,
        manifest,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(cc: CcKind, n_flows: u64) -> FleetConfig {
        let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
        FleetConfig::new(scn, cc, FleetWorkload::web(0.3, scn.bottleneck, n_flows))
    }

    #[test]
    fn fleet_cell_completes_and_recycles_slots() {
        let stats = run_fleet_cell(&small_cfg(CcKind::Cubic, 40), 7);
        assert_eq!(stats.spawned, 40);
        assert_eq!(stats.completed, 40, "all flows must drain: {stats:?}");
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.hist_all().count(), 40);
        assert!(stats.peak_concurrent >= 1);
        // At load 0.3 most flows finish between arrivals, so the slot
        // pool must stay far smaller than the flow count.
        let created = stats.counters.get(names::FLEET_SLOTS_CREATED).unwrap();
        let reused = stats.counters.get(names::FLEET_SLOT_REUSES).unwrap();
        assert_eq!(created, stats.peak_concurrent);
        assert_eq!(created + reused, 40);
        assert!(created < 40, "slots must be recycled (created {created})");
        assert_eq!(stats.counters.get(names::FLEET_FLOWS_COMPLETED), Some(40));
        // FCTs are at least one RTT.
        assert!(stats.hist_all().percentile(50.0) > 0.01);
    }

    #[test]
    fn fleet_cell_is_deterministic() {
        let cfg = small_cfg(CcKind::CubicSuss, 25);
        let a = run_fleet_cell(&cfg, 11);
        let b = run_fleet_cell(&cfg, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_cap_suppresses_sampling() {
        let mut cfg = small_cfg(CcKind::Cubic, 20);
        cfg.trace_sampling = true;
        cfg.trace_flow_cap = 0;
        let stats = run_fleet_cell(&cfg, 3);
        assert_eq!(
            stats.counters.get(names::FLEET_TRACES_SUPPRESSED),
            Some(stats.spawned)
        );
        // With a generous cap nothing is suppressed.
        cfg.trace_flow_cap = 1_000;
        let stats = run_fleet_cell(&cfg, 3);
        assert_eq!(stats.counters.get(names::FLEET_TRACES_SUPPRESSED), Some(0));
    }

    #[test]
    fn scope_sampling_is_free_and_lands_annotations() {
        let plain = small_cfg(CcKind::Cubic, 15);
        let mut scoped = plain;
        scoped.scope_sampling = 8;
        assert_eq!(plain.canonical_params(), scoped.canonical_params());

        simtrace::runtime::take_scope_annotations();
        let a = run_fleet_cell(&plain, 5);
        assert!(simtrace::runtime::take_scope_annotations().is_empty());

        let b = run_fleet_cell(&scoped, 5);
        let anns = simtrace::runtime::take_scope_annotations();
        assert_eq!(a, b, "scope sampling must never change results");
        assert!(
            anns.iter().any(
                |x| x.label == "scope/oracle-london/wired/cubic/load0.3/queue_depth" && x.n > 0
            ),
            "expected a queue-depth annotation, got {anns:?}"
        );
        for ann in &anns {
            assert!(ann.p99 >= ann.p50, "percentiles out of order: {ann:?}");
        }
    }

    #[test]
    fn fleet_cells_profile_under_the_cell_span() {
        let _ = simtrace::prof::take();
        simtrace::prof::set_enabled(true);
        run_fleet_cell(&small_cfg(CcKind::Cubic, 10), 9);
        simtrace::prof::set_enabled(false);
        let snap = simtrace::prof::take();
        assert!(
            snap.spans.iter().any(|s| s.path == "fleet/cell"),
            "missing fleet/cell span: {snap:?}"
        );
        assert!(snap.spans.iter().any(|s| s.path.starts_with("fleet/cell;")));
        assert!(
            snap.coverage_percent() > 95.0,
            "cell span must cover the run: {:.1}%",
            snap.coverage_percent()
        );
    }
}
