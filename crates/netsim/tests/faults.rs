//! Behavioral contract for link fault injection: flaps cut the wire but
//! preserve the queue, Gilbert–Elliott losses are bursty, reordering and
//! duplication really happen, delay steps shift arrivals — and all of it
//! is deterministic and replays exactly what the original binary-heap
//! engine recorded.

use netsim::{
    Agent, Bandwidth, Ctx, FaultPlan, FlapWindow, FlowId, GilbertElliott, LinkId, LinkSpec, Packet,
    Sim, SimTime,
};
use std::any::Any;
use std::time::Duration;

mod golden;
use golden::{digest, non_engine_counters};

/// Records every delivery; optionally echoes typed payloads back.
struct Probe {
    got: Vec<(SimTime, u64)>,
}

impl Probe {
    fn new() -> Self {
        Probe { got: Vec::new() }
    }
}

impl Agent for Probe {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.got.push((ctx.now(), pkt.id));
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn one_way(spec: LinkSpec) -> (Sim, netsim::NodeId, netsim::NodeId, LinkId) {
    let mut sim = Sim::new(7);
    let a = sim.add_agent(Box::new(Probe::new()));
    let b = sim.add_agent(Box::new(Probe::new()));
    let ab = sim.add_half_link(a, b, spec);
    (sim, a, b, ab)
}

#[test]
fn flap_cuts_wire_and_drains_queue_on_restore() {
    // 1 ms serialization per packet; link down in [2ms, 10ms).
    let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::ZERO).with_faults(
        FaultPlan::new().with_flaps(vec![FlapWindow {
            down: SimTime::from_millis(2),
            up: SimTime::from_millis(10),
        }]),
    );
    let (mut sim, a, b, ab) = one_way(spec);
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        for _ in 0..5 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
        }
    });
    sim.run_to_completion();
    let got = &sim.agent::<Probe>(b).got;
    let times: Vec<SimTime> = got.iter().map(|(t, _)| *t).collect();
    // Packet 1 serializes before the outage; packet 2 finishes exactly at
    // the (inclusive) down instant and is cut; 3–5 wait in the queue and
    // drain from the restore at 10ms.
    assert_eq!(
        times,
        vec![
            SimTime::from_millis(1),
            SimTime::from_millis(11),
            SimTime::from_millis(12),
            SimTime::from_millis(13),
        ]
    );
    let stats = sim.link_stats(ab);
    assert_eq!(stats.flap_lost_pkts, 1);
    assert_eq!(stats.delivered_pkts, 4);
    assert_eq!(
        sim.metrics()
            .snapshot()
            .get(simtrace::names::NET_LINK_FLAPS),
        Some(1)
    );
    assert!(
        sim.metrics()
            .snapshot()
            .get(simtrace::names::NET_FAULTS_INJECTED)
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn send_during_outage_queues_until_restore() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::ZERO).with_faults(
        FaultPlan::new().with_flaps(vec![FlapWindow {
            down: SimTime::ZERO,
            up: SimTime::from_millis(5),
        }]),
    );
    let (mut sim, a, b, ab) = one_way(spec);
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
    });
    sim.run_to_completion();
    // Down from t=0: the packet queues and serializes only after 5 ms.
    let got = &sim.agent::<Probe>(b).got;
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, SimTime::from_millis(6));
}

#[test]
fn ge_losses_come_in_bursts() {
    // Strongly bursty process: mean burst ~20 packets, all lost in Bad.
    let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::ZERO)
        .with_faults(FaultPlan::new().with_ge(GilbertElliott::gilbert(0.02, 0.05, 1.0)));
    let (mut sim, a, b, ab) = one_way(spec);
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        for _ in 0..5000 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
        }
    });
    sim.run_to_completion();
    let stats = sim.link_stats(ab);
    assert!(stats.ge_lost_pkts > 500, "ge losses {}", stats.ge_lost_pkts);
    assert_eq!(stats.random_lost_pkts, 0, "no i.i.d. loss configured");
    // Burstiness: consecutive delivered ids must show long gaps (runs of
    // losses), which i.i.d. loss at the same rate would almost never give.
    let ids: Vec<u64> = sim
        .agent::<Probe>(b)
        .got
        .iter()
        .map(|(_, id)| *id)
        .collect();
    let max_gap = ids.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    assert!(max_gap >= 10, "expected a loss burst, max gap {max_gap}");
}

#[test]
fn reordering_breaks_fifo_only_when_enabled() {
    let base = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(5));
    let run = |spec: LinkSpec| {
        let (mut sim, a, b, ab) = one_way(spec);
        sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
            for _ in 0..500 {
                ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
            }
        });
        sim.run_to_completion();
        let ids: Vec<u64> = sim
            .agent::<Probe>(b)
            .got
            .iter()
            .map(|(_, id)| *id)
            .collect();
        let reordered = sim.link_stats(ab).reordered_pkts;
        (ids, reordered)
    };
    let (clean_ids, clean_reordered) = run(base.clone());
    let mut sorted = clean_ids.clone();
    sorted.sort();
    assert_eq!(clean_ids, sorted, "clean link must stay FIFO");
    assert_eq!(clean_reordered, 0);

    let (ids, reordered) =
        run(base.with_faults(FaultPlan::new().with_reorder(0.05, Duration::from_millis(3))));
    assert!(reordered > 5, "reordered {reordered}");
    let mut sorted = ids.clone();
    sorted.sort();
    assert_ne!(ids, sorted, "held-back packets must be overtaken");
    assert_eq!(ids.len(), 500, "reordering must not lose packets");
}

#[test]
fn duplication_delivers_typed_payload_twice() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::ZERO)
        .with_faults(FaultPlan::new().with_duplicate(0.2));
    let mut sim = Sim::new(3);
    let a = sim.add_agent(Box::new(Probe::new()));
    let b = sim.add_agent(Box::new(Probe::new()));
    let ab = sim.add_half_link(a, b, spec);
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        for i in 0..1000u64 {
            // Typed payloads exercise the cloner attached by alloc_payload.
            let boxed = ctx.alloc_payload(i);
            ctx.send(ab, Packet::with_boxed_payload(FlowId(1), a, b, 1500, boxed));
        }
    });
    sim.run_to_completion();
    let stats = sim.link_stats(ab);
    assert!(
        (120..=280).contains(&stats.dup_pkts),
        "dup_pkts {}",
        stats.dup_pkts
    );
    assert_eq!(stats.delivered_pkts, 1000 + stats.dup_pkts);
    assert_eq!(
        sim.agent::<Probe>(b).got.len() as u64,
        1000 + stats.dup_pkts
    );
}

#[test]
fn delay_steps_shift_arrivals() {
    let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::from_millis(10)).with_faults(
        FaultPlan::new()
            .with_delay_steps(vec![(SimTime::from_millis(5), Duration::from_millis(30))]),
    );
    let (mut sim, a, b, ab) = one_way(spec);
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        // 1 ms serialization: finishes at t=1ms, before the route change.
        ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
    });
    sim.run_until(SimTime::from_millis(4));
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        // Serialization finishes at t=5ms, exactly on the step.
        ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
    });
    sim.run_to_completion();
    let times: Vec<SimTime> = sim.agent::<Probe>(b).got.iter().map(|(t, _)| *t).collect();
    // First: 1 + 10 = 11 ms. Second: 5 + 10 + 30 = 45 ms.
    assert_eq!(
        times,
        vec![SimTime::from_millis(11), SimTime::from_millis(45)]
    );
}

/// The full fault cocktail replays exactly what the original binary-heap
/// engine (no pooling, no batching) recorded.
#[test]
fn faulted_link_is_engine_equivalent() {
    let plan = FaultPlan::new()
        .with_ge(GilbertElliott::gilbert(0.01, 0.1, 0.9))
        .with_flaps(vec![FlapWindow {
            down: SimTime::from_millis(40),
            up: SimTime::from_millis(60),
        }])
        .with_reorder(0.03, Duration::from_millis(2))
        .with_duplicate(0.02)
        .with_delay_steps(vec![(SimTime::from_millis(80), Duration::from_millis(7))]);
    let spec = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(5))
        .with_jitter(netsim::JitterModel::correlated(
            Duration::from_millis(1),
            0.4,
        ))
        .with_loss(0.01)
        .with_queue_bytes(30_000)
        .with_faults(plan);
    let mut sim = Sim::new(11);
    let a = sim.add_agent(Box::new(Probe::new()));
    let b = sim.add_agent(Box::new(Probe::new()));
    let ab = sim.add_half_link(a, b, spec);
    sim.with_agent_ctx::<Probe, _>(a, |_, ctx| {
        for i in 0..800u64 {
            let boxed = ctx.alloc_payload(i);
            ctx.send(ab, Packet::with_boxed_payload(FlowId(1), a, b, 1200, boxed));
        }
    });
    sim.run_to_completion();

    assert_eq!(
        digest(&sim.agent::<Probe>(b).got),
        (27, 0x5647_e246_9c98_bbfe),
        "delivery trace"
    );
    assert_eq!(
        non_engine_counters(&sim.metrics().snapshot()),
        [
            ("net.aqm_drops", 0),
            ("net.events_processed", 54),
            ("net.events_scheduled", 54),
            ("net.faults_injected", 2),
            ("net.link_flaps", 1),
            ("net.orphan_events", 0),
            ("net.queue_depth_hwm_bytes", 30000),
            ("net.queue_drops", 774),
        ],
        "counter totals diverged from the heap golden"
    );
}
