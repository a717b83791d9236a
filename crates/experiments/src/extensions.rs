//! Extension experiments beyond the paper:
//!
//! * **BBR + SUSS** — the paper's §7 future-work direction, measured;
//! * **SUSS under CoDel** — how the acceleration behaves when the
//!   bottleneck runs AQM instead of a drop-tail buffer (the related-work
//!   section's network-assisted world meeting the paper's end-to-end one);
//! * **cross traffic** — SUSS sharing its bottleneck with an unresponsive
//!   Poisson stream;
//! * **parking lot** — a short flow crossing several stacked bottlenecks.
//!
//! Every sweep runs as one [`FlowGrid`] campaign: cells spread across the
//! worker pool, memoize in the shared cache, and the function returns the
//! rendered table together with the run's manifest.

use crate::campaigns::FlowGrid;
use crate::runner::{run_download, run_until_complete, Endpoints, FlowOutcome, Transport, HORIZON};
use cc_algos::CcKind;
use netsim::{FlowId, Qdisc, Sim, SimTime};
use simrunner::{RunManifest, RunnerOpts};
use simstats::{fmt_bytes, fmt_pct, improvement, TextTable};
use workload::{LastHop, PathScenario, ServerSite};

/// BBR vs BBR+SUSS FCT across flow sizes on a clean large-BDP path.
pub fn bbr_suss_sweep(
    sizes: &[u64],
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    let scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::Wired);
    let mut grid = FlowGrid::new("ext_bbr_suss");
    let batches: Vec<_> = sizes
        .iter()
        .map(|&size| {
            let plain = grid.batch(&scn, CcKind::Bbr, size, iters, seed_base);
            let boosted = grid.batch(&scn, CcKind::BbrSuss, size, iters, seed_base);
            (size, plain, boosted)
        })
        .collect();
    let run = grid.run(opts);

    let mut t = TextTable::new(vec!["size", "bbr(s)", "bbr+suss(s)", "improvement"]);
    for (size, plain_b, boosted_b) in batches {
        let (plain, boosted) = (run.fct(plain_b).mean, run.fct(boosted_b).mean);
        t.row(vec![
            fmt_bytes(size),
            format!("{plain:.3}"),
            format!("{boosted:.3}"),
            fmt_pct(improvement(plain, boosted)),
        ]);
    }
    (t, run.manifest)
}

/// Run one flow over a scenario whose bottleneck uses CoDel.
///
/// AQM-initiated head drops surface through the engine's
/// `net.aqm_drops` counter in [`FlowOutcome::counters`];
/// `bottleneck_drops` keeps counting tail drops as usual.
pub(crate) fn run_flow_codel(
    scenario: &PathScenario,
    kind: CcKind,
    flow_bytes: u64,
    seed: u64,
) -> FlowOutcome {
    run_download(
        scenario.data_link().with_qdisc(Qdisc::Codel),
        scenario.ack_link(),
        Transport::tcp(kind),
        flow_bytes,
        seed,
        false,
    )
    .with_sender_fct()
}

/// SUSS on/off under a CoDel bottleneck: FCT and AQM drops.
pub fn codel_sweep(
    sizes: &[u64],
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    // A deep-buffered 4G-ish path: exactly where AQM matters.
    let mut scn = PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG);
    scn.buffer_bdp = 4.0;

    let mut grid = FlowGrid::new("ext_codel");
    let mut arm = |kind: CcKind, size: u64| {
        grid.batch_fn(
            &format!("{}/{}/{}B/codel", scn.id(), kind.label(), size),
            &format!(
                "{} cc={} size={size} qdisc=codel",
                scn.canonical_params(),
                kind.label()
            ),
            iters,
            seed_base,
            move |seed| run_flow_codel(&scn, kind, size, seed),
        )
    };
    let batches: Vec<_> = sizes
        .iter()
        .map(|&size| (size, arm(CcKind::Cubic, size), arm(CcKind::CubicSuss, size)))
        .collect();
    let run = grid.run(opts);

    let mut t = TextTable::new(vec![
        "size",
        "cubic(s)",
        "suss(s)",
        "improvement",
        "aqm-drops(cubic)",
        "aqm-drops(suss)",
    ]);
    for (size, off_b, on_b) in batches {
        let (off, on) = (run.fct(off_b).mean, run.fct(on_b).mean);
        let d_off = run.counter_mean(off_b, simtrace::names::NET_AQM_DROPS);
        let d_on = run.counter_mean(on_b, simtrace::names::NET_AQM_DROPS);
        t.row(vec![
            fmt_bytes(size),
            format!("{off:.3}"),
            format!("{on:.3}"),
            fmt_pct(improvement(off, on)),
            format!("{d_off:.1}"),
            format!("{d_on:.1}"),
        ]);
    }
    (t, run.manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_flow;
    use workload::MB;

    #[test]
    fn bbr_suss_beats_plain_bbr_for_small_flows() {
        let scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::Wired);
        let plain = run_flow(&scn, CcKind::Bbr, MB, 1, false);
        let boosted = run_flow(&scn, CcKind::BbrSuss, MB, 1, false);
        let imp = improvement(plain.fct_secs(), boosted.fct_secs());
        assert!(imp > 0.05, "BBR+SUSS improvement {:.1}%", imp * 100.0);
        assert_eq!(
            boosted.segs_retransmitted, 0,
            "the boost must not cause loss on a clean path"
        );
    }

    #[test]
    fn bbr_suss_sweep_runs_as_a_campaign() {
        let (t, manifest) = bbr_suss_sweep(&[MB], 2, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 1);
        // 1 size × 2 arms × 2 iters.
        assert_eq!(manifest.total_cells, 4);
        assert!(manifest.events_total > 0);
    }

    #[test]
    fn codel_path_completes_and_suss_still_helps() {
        let mut scn = PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG);
        scn.buffer_bdp = 4.0;
        let off = run_flow_codel(&scn, CcKind::Cubic, 2 * MB, 1);
        let on = run_flow_codel(&scn, CcKind::CubicSuss, 2 * MB, 1);
        assert!(off.fct_secs().is_finite() && on.fct_secs().is_finite());
        let imp = improvement(off.fct_secs(), on.fct_secs());
        assert!(imp > 0.0, "SUSS under CoDel: {:.1}%", imp * 100.0);
    }

    #[test]
    fn codel_controls_steady_state_delay() {
        // A long CUBIC flow on a deep buffer: with CoDel the AQM must drop
        // (bounding the standing queue) where drop-tail would only bloat.
        let mut scn = PathScenario::new(ServerSite::GoogleUsEast, LastHop::FourG);
        scn.buffer_bdp = 4.0;
        let out = run_flow_codel(&scn, CcKind::Cubic, 20 * MB, 1);
        assert!(out.fct_secs().is_finite());
        let aqm_drops = out
            .counters
            .get(simtrace::names::NET_AQM_DROPS)
            .unwrap_or(0);
        assert!(
            aqm_drops > 0,
            "CoDel must intervene on a bufferbloated path"
        );
    }

    #[test]
    fn codel_sweep_reports_aqm_drops_per_arm() {
        let (t, manifest) = codel_sweep(&[2 * MB], 2, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 1);
        assert_eq!(manifest.total_cells, 4);
    }
}

/// Cross-traffic experiment: one download sharing its bottleneck with an
/// unresponsive Poisson stream at a configurable load fraction. The
/// paper's Internet paths carry uncontrolled cross traffic; this isolates
/// its effect on SUSS's measurements and decisions.
///
/// Topology: `sender, cross-src → routerA ═bottleneck═ routerB → receiver,
/// sink`, with a clean direct ACK path back.
pub fn cross_traffic_sweep(
    flow_bytes: u64,
    loads: &[f64],
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    let scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::Wired);

    let mut grid = FlowGrid::new("ext_cross_traffic");
    let mut arm = |kind: CcKind, load: f64| {
        grid.batch_fn(
            &format!(
                "{}/{}/{}B/x{:02.0}",
                scn.id(),
                kind.label(),
                flow_bytes,
                load * 100.0
            ),
            &format!(
                "{} cc={} size={flow_bytes} xtraffic=poisson xload={load:.3}",
                scn.canonical_params(),
                kind.label()
            ),
            iters,
            seed_base,
            move |seed| run_cross_traffic(&scn, kind, flow_bytes, load, seed),
        )
    };
    let batches: Vec<_> = loads
        .iter()
        .map(|&load| (load, arm(CcKind::Cubic, load), arm(CcKind::CubicSuss, load)))
        .collect();
    let run = grid.run(opts);

    let mut t = TextTable::new(vec![
        "cross-load",
        "cubic(s)",
        "suss(s)",
        "improvement",
        "suss-rtx(%)",
    ]);
    for (load, off_b, on_b) in batches {
        let (off, on) = (run.fct(off_b).mean, run.fct(on_b).mean);
        let rtx_on = run.retransmit_rate(on_b).mean;
        t.row(vec![
            format!("{:.0}%", load * 100.0),
            format!("{off:.3}"),
            format!("{on:.3}"),
            fmt_pct(improvement(off, on)),
            format!("{:.2}", rtx_on * 100.0),
        ]);
    }
    (t, run.manifest)
}

/// One cross-traffic cell: the download plus a Poisson stream at
/// `load` × bottleneck rate through a shared two-router bottleneck.
fn run_cross_traffic(
    scn: &PathScenario,
    kind: CcKind,
    flow_bytes: u64,
    load: f64,
    seed: u64,
) -> FlowOutcome {
    use netsim::{Bandwidth, Router, TrafficSink, TrafficSource};
    use std::time::Duration;

    let mut sim = Sim::new(seed);
    let flow = Endpoints::install(&mut sim, FlowId(1), Transport::tcp(kind), flow_bytes, false);
    let sink = sim.add_agent(Box::new(TrafficSink::new()));
    let router_a = sim.add_agent(Box::new(Router::new()));
    let router_b = sim.add_agent(Box::new(Router::new()));

    let edge = || netsim::LinkSpec::clean(Bandwidth::from_gbps(1), Duration::from_micros(100));
    let (snd, rcv) = flow.nodes();
    let s_in = sim.add_half_link(snd, router_a, edge());
    let bottleneck = sim.add_half_link(router_a, router_b, scn.data_link());
    let b_rcv = sim.add_half_link(router_b, rcv, edge());
    let b_sink = sim.add_half_link(router_b, sink, edge());
    let ack_back = sim.add_half_link(rcv, snd, scn.ack_link());
    sim.agent_mut::<Router>(router_a)
        .set_default_route(bottleneck);
    let rb = sim.agent_mut::<Router>(router_b);
    rb.add_route(rcv, b_rcv);
    rb.add_route(sink, b_sink);

    // The cross source transmits on its own edge into router A.
    let rate = Bandwidth::from_bps(((scn.bottleneck.as_bps() as f64 * load) as u64).max(1_000));
    let rng = netsim::SimRng::new(seed ^ 0xC505_7AFF);
    let src = sim.add_agent(Box::new(TrafficSource::new(
        FlowId(2),
        sink,
        rate,
        1_250,
        SimTime::ZERO,
        SimTime::from_secs(600),
        rng,
    )));
    let src_edge = sim.add_half_link(src, router_a, edge());
    sim.agent_mut::<TrafficSource>(src).set_egress(src_edge);

    flow.wire(&mut sim, s_in, ack_back);
    run_until_complete(&mut sim, &[flow], HORIZON);
    FlowOutcome::collect(&mut sim, flow, &[bottleneck]).with_sender_fct()
}

#[cfg(test)]
mod cross_tests {
    use super::*;
    use workload::MB;

    #[test]
    fn cross_traffic_table_renders_and_suss_survives_load() {
        let (t, manifest) = cross_traffic_sweep(MB, &[0.0, 0.4], 2, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 2);
        // 2 loads × 2 arms × 2 iters.
        assert_eq!(manifest.total_cells, 8);
        let csv = t.to_csv();
        // At zero load SUSS must win clearly; the row order is stable.
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows[0].starts_with("0%"));
        assert!(rows[1].starts_with("40%"));
    }
}

/// Multi-bottleneck (parking-lot) experiment: a short download traverses
/// `hops` consecutive bottlenecks, each carrying its own long cross flow.
/// SUSS's conditions see the *aggregate* path (the tightest hop dominates
/// the ACK train): the acceleration must remain safe when congestion can
/// appear at any of several places.
pub fn parking_lot_probe(
    hops: usize,
    flow_bytes: u64,
    seed: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    let mut grid = FlowGrid::new("ext_parking_lot");
    let mut arm = |kind: CcKind| {
        grid.batch_fn(
            &format!("parking-lot/{}/{}B/h{hops}", kind.label(), flow_bytes),
            &format!(
                "topo=parking-lot hops={hops} hop=60Mbps,8ms,1bdp cc={} size={flow_bytes}",
                kind.label()
            ),
            1,
            seed,
            move |seed| run_parking_lot(hops, kind, flow_bytes, seed),
        )
    };
    let off_b = arm(CcKind::Cubic);
    let on_b = arm(CcKind::CubicSuss);
    let run = grid.run(opts);
    let off = run.batch_stats(off_b)[0]
        .as_ref()
        .expect("parking-lot cubic cell failed");
    let on = run.batch_stats(on_b)[0]
        .as_ref()
        .expect("parking-lot suss cell failed");

    let mut t = TextTable::new(vec!["metric", "cubic", "suss"]);
    t.row(vec![
        "fct(s)".to_string(),
        format!("{:.3}", off.fct_secs),
        format!("{:.3}", on.fct_secs),
    ]);
    t.row(vec![
        "retransmits".to_string(),
        format!("{}", off.segs_retransmitted),
        format!("{}", on.segs_retransmitted),
    ]);
    t.row(vec![
        "improvement".to_string(),
        "-".to_string(),
        fmt_pct(improvement(off.fct_secs, on.fct_secs)),
    ]);
    t.row(vec![
        "hop drops (total)".to_string(),
        format!("{}", off.bottleneck_drops),
        format!("{}", on.bottleneck_drops),
    ]);
    (t, run.manifest)
}

/// One parking-lot cell: the probe flow across `hops` bottlenecks, each
/// saturated by its own long-lived CUBIC cross flow.
fn run_parking_lot(hops: usize, kind: CcKind, flow_bytes: u64, seed: u64) -> FlowOutcome {
    use netsim::{build_parking_lot, Bandwidth, LinkSpec, ParkingLotSpec};
    use std::time::Duration;

    let mut sim = Sim::new(seed);
    // Long-path short flow under test.
    let probe = Endpoints::install(&mut sim, FlowId(1), Transport::tcp(kind), flow_bytes, false);
    // One long-lived CUBIC cross flow per hop.
    let crosses: Vec<Endpoints> = (0..hops)
        .map(|i| {
            Endpoints::install(
                &mut sim,
                FlowId(10 + i as u64),
                Transport::tcp(CcKind::Cubic),
                u64::MAX,
                false,
            )
        })
        .collect();

    let hop_spec = LinkSpec::clean(Bandwidth::from_mbps(60), Duration::from_millis(8))
        .with_queue_bdp(Duration::from_millis(64), 1.0);
    let spec = ParkingLotSpec {
        hops: vec![hop_spec; hops],
        edge: LinkSpec::clean(Bandwidth::from_gbps(1), Duration::from_millis(1)),
    };
    let pairs: Vec<_> = crosses.iter().map(|c| c.nodes()).collect();
    let (src, dst) = probe.nodes();
    let pl = build_parking_lot(&mut sim, src, dst, &pairs, &spec);
    probe.wire(&mut sim, pl.long_src_egress, pl.long_dst_egress);
    for (i, c) in crosses.iter().enumerate() {
        c.wire(&mut sim, pl.cross_src_egress[i], pl.cross_dst_egress[i]);
    }

    run_until_complete(&mut sim, &[probe], SimTime::from_secs(300));
    FlowOutcome::collect(&mut sim, probe, &pl.hop_links).with_sender_fct()
}

#[cfg(test)]
mod parking_tests {
    use super::*;
    use workload::MB;

    #[test]
    fn multi_bottleneck_path_stays_safe() {
        let (t, manifest) = parking_lot_probe(3, MB, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 4);
        assert_eq!(manifest.total_cells, 2);
        let csv = t.to_csv();
        // Extract the FCTs back out of the table for the assertion.
        let fct_row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let (off, on): (f64, f64) = (fct_row[1].parse().unwrap(), fct_row[2].parse().unwrap());
        assert!(off.is_finite() && on.is_finite(), "both arms must complete");
        // SUSS must not be meaningfully slower across stacked bottlenecks.
        assert!(on <= off * 1.10, "suss {on} vs cubic {off}");
    }
}
