//! Scheduler contract, pinned by goldens: the timer wheel dispatches
//! events in exactly the global `(time, insertion-seq)` order of the
//! original binary-heap engine, so delivery traces, counter totals and RNG
//! draws all match it. That engine is no longer part of the simulator.
//! Its observations on these meshes were recorded once as constants
//! (trace length plus FNV-1a digest, counter totals outside the
//! engine-internal `net.sched_*`/`net.pool_*` families), and the one
//! engine must reproduce them. The heap itself lives on as the
//! random-schedule oracle in `src/wheel.rs`.

use netsim::{
    Agent, Bandwidth, Ctx, FaultPlan, FlapWindow, FlowId, GilbertElliott, JitterModel, LinkId,
    LinkSpec, Packet, Sim, SimTime,
};
use std::any::Any;
use std::time::Duration;

mod golden;
use golden::{digest, non_engine_counters};

/// Echoes every packet back and logs everything it observes.
struct Echo {
    out: Option<LinkId>,
    got: Vec<(SimTime, u64)>,
    timer_log: Vec<(SimTime, u64)>,
}

impl Echo {
    fn new() -> Self {
        Echo {
            out: None,
            got: Vec::new(),
            timer_log: Vec::new(),
        }
    }
}

impl Agent for Echo {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.got.push((ctx.now(), pkt.id));
        if let Some(out) = self.out {
            ctx.send(out, Packet::opaque(pkt.flow, pkt.dst, pkt.src, pkt.size));
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.timer_log.push((ctx.now(), token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What b received and the timers a fired, each stamped with its time.
type Trace = (Vec<(SimTime, u64)>, Vec<(SimTime, u64)>);

/// A jittery, lossy ping-pong mesh: enough concurrent events, RNG draws,
/// and FIFO clamping to catch any ordering divergence between schedulers.
fn echo_mesh_trace() -> Trace {
    let mut sim = Sim::new(99);
    let a = sim.add_agent(Box::new(Echo::new()));
    let b = sim.add_agent(Box::new(Echo::new()));
    let spec = |delay_ms| {
        LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(delay_ms))
            .with_jitter(JitterModel::correlated(Duration::from_millis(2), 0.5))
            .with_loss(0.02)
            .with_queue_bytes(20_000)
    };
    let (ab, ba) = sim.add_link(a, b, spec(7), spec(12));
    sim.agent_mut::<Echo>(b).out = Some(ba);
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        for i in 0..300u64 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1200));
            // Timers interleaved with traffic, some at equal instants.
            ctx.set_timer(SimTime::from_millis(i / 3), i);
        }
        // Far timers that cross the wheel's overflow boundary.
        for i in 0..10u64 {
            ctx.set_timer(SimTime::from_secs(i), 1000 + i);
        }
    });
    sim.run_to_completion();
    let got_b = sim.agent::<Echo>(b).got.clone();
    let timers_a = sim.agent::<Echo>(a).timer_log.clone();
    (got_b, timers_a)
}

#[test]
fn wheel_reproduces_heap_dispatch_order() {
    // Recorded from the heap engine without pooling or batching.
    let (got_b, timers_a) = echo_mesh_trace();
    assert_eq!(digest(&got_b), (15, 0xc210_6cac_ef02_f50e), "deliveries");
    assert_eq!(digest(&timers_a), (310, 0x0607_4f24_d884_4c5f), "timers");
}

/// The echo mesh again, with every fault family active on the a→b
/// direction: fault RNG substreams and the reorder/duplication event
/// churn must replay exactly as they did on the heap.
fn faulted_mesh_trace() -> Trace {
    let mut sim = Sim::new(42);
    let a = sim.add_agent(Box::new(Echo::new()));
    let b = sim.add_agent(Box::new(Echo::new()));
    let plan = FaultPlan::new()
        .with_ge(GilbertElliott::gilbert(0.05, 0.3, 0.8))
        .with_flaps(vec![FlapWindow {
            down: SimTime::from_millis(40),
            up: SimTime::from_millis(70),
        }])
        .with_reorder(0.1, Duration::from_millis(3))
        .with_duplicate(0.05)
        .with_delay_steps(vec![(SimTime::from_millis(30), Duration::from_millis(5))]);
    let fwd = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(7))
        .with_jitter(JitterModel::correlated(Duration::from_millis(2), 0.5))
        .with_loss(0.02)
        .with_queue_bytes(20_000)
        .with_faults(plan);
    let rev = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(12))
        .with_queue_bytes(20_000);
    let (ab, ba) = sim.add_link(a, b, fwd, rev);
    sim.agent_mut::<Echo>(b).out = Some(ba);
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        for i in 0..300u64 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1200));
            ctx.set_timer(SimTime::from_millis(i / 3), i);
        }
    });
    sim.run_to_completion();
    let got_b = sim.agent::<Echo>(b).got.clone();
    let timers_a = sim.agent::<Echo>(a).timer_log.clone();
    (got_b, timers_a)
}

#[test]
fn wheel_reproduces_heap_dispatch_order_under_faults() {
    // Recorded from the heap engine without pooling or batching.
    let (got_b, timers_a) = faulted_mesh_trace();
    assert_eq!(digest(&got_b), (17, 0x6cb6_1e6a_0972_188f), "deliveries");
    assert_eq!(digest(&timers_a), (300, 0x1e87_93f9_0e86_18d5), "timers");
}

#[test]
fn counter_totals_identical_across_engines() {
    let mut sim = Sim::new(5);
    let a = sim.add_agent(Box::new(Echo::new()));
    let b = sim.add_agent(Box::new(Echo::new()));
    let spec =
        LinkSpec::clean(Bandwidth::from_mbps(5), Duration::from_millis(30)).with_queue_bytes(6_000);
    let ab = sim.add_half_link(a, b, spec);
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        for _ in 0..50 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
        }
    });
    sim.run_to_completion();
    // Recorded from the heap engine with pooling on and batching off.
    assert_eq!(
        digest(&sim.agent::<Echo>(b).got),
        (5, 0xee37_951a_7864_e807)
    );
    assert_eq!(
        non_engine_counters(&sim.metrics().snapshot()),
        [
            ("net.aqm_drops", 0),
            ("net.events_processed", 10),
            ("net.events_scheduled", 10),
            ("net.faults_injected", 0),
            ("net.link_flaps", 0),
            ("net.orphan_events", 0),
            ("net.queue_depth_hwm_bytes", 6000),
            ("net.queue_drops", 45),
        ],
        "counter totals diverged from the heap golden"
    );
}

/// Same-tick batching contract: coalescing same-instant same-link
/// deliveries into one dispatch step must leave every observable —
/// delivery trace and counter totals — as the unbatched heap engine saw
/// it, while actually batching. Serialization times round up to ≥1 ns,
/// so back-to-back packets never share an arrival tick; duplication
/// faults do deliver a twin at the *same* instant over the same link, so
/// every twin coalesces into its original's dispatch. (The echo and
/// faulted meshes above also run batched against unbatched goldens.)
#[test]
fn same_tick_batching_matches_unbatched_golden() {
    let mut sim = Sim::new(17);
    let a = sim.add_agent(Box::new(Echo::new()));
    let b = sim.add_agent(Box::new(Echo::new()));
    let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(5))
        .with_faults(FaultPlan::new().with_duplicate(1.0));
    let ab = sim.add_half_link(a, b, spec);
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        for _ in 0..64 {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1200));
        }
    });
    sim.run_to_completion();
    // Recorded from the heap engine without pooling or batching.
    assert_eq!(
        digest(&sim.agent::<Echo>(b).got),
        (128, 0xe8a8_769d_3a74_2899),
        "burst trace"
    );
    let snap = sim.metrics().snapshot();
    assert_eq!(
        non_engine_counters(&snap),
        [
            ("net.aqm_drops", 0),
            ("net.events_processed", 192),
            ("net.events_scheduled", 192),
            ("net.faults_injected", 64),
            ("net.link_flaps", 0),
            ("net.orphan_events", 0),
            ("net.queue_depth_hwm_bytes", 75600),
            ("net.queue_drops", 0),
        ],
        "counter totals diverged from the heap golden"
    );
    let n_batched = snap.get(simtrace::names::NET_SCHED_BATCHED).unwrap_or(0);
    assert!(
        n_batched > 50,
        "same-instant burst must actually coalesce ({n_batched})"
    );
}

#[test]
fn far_timers_cascade_and_fire_in_order() {
    let mut sim = Sim::new(1);
    let a = sim.add_agent(Box::new(Echo::new()));
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        // Spread across seconds: far beyond the wheel window, forcing the
        // overflow heap and cascade path.
        for i in (0..40u64).rev() {
            ctx.set_timer(SimTime::from_millis(i * 400), i);
        }
    });
    sim.run_to_completion();
    let tokens: Vec<u64> = sim.agent::<Echo>(a).timer_log.iter().map(|t| t.1).collect();
    assert_eq!(tokens, (0..40).collect::<Vec<_>>());
    let cascades = sim
        .metrics()
        .snapshot()
        .get(simtrace::names::NET_SCHED_CASCADES)
        .unwrap_or(0);
    assert!(cascades > 0, "far timers must go through the overflow heap");
}

#[test]
fn run_until_across_idle_stretches() {
    // Deadlines far past the last event leave `now` well ahead of the
    // wheel cursor; scheduling afterwards must still dispatch correctly.
    let mut sim = Sim::new(1);
    let a = sim.add_agent(Box::new(Echo::new()));
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        ctx.set_timer(SimTime::from_millis(1), 1);
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.now(), SimTime::from_secs(10));
    sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
        ctx.set_timer(SimTime::from_secs(11), 2);
        ctx.set_timer(SimTime::from_millis(10_500), 3);
    });
    sim.run_until(SimTime::from_secs(20));
    let log = &sim.agent::<Echo>(a).timer_log;
    assert_eq!(
        log,
        &vec![
            (SimTime::from_millis(1), 1),
            (SimTime::from_millis(10_500), 3),
            (SimTime::from_secs(11), 2),
        ]
    );
}

/// Endpoint pair exchanging typed payloads through the pool-aware path.
struct PoolPing {
    out: Option<LinkId>,
    replies: u32,
    seen: Vec<u64>,
}

impl Agent for PoolPing {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let (val, meta) = ctx.take_payload::<u64>(pkt).expect("typed payload");
        self.seen.push(val);
        if let Some(out) = self.out {
            if self.replies > 0 {
                self.replies -= 1;
                let boxed = ctx.alloc_payload(val + 1);
                ctx.send(
                    out,
                    Packet::with_boxed_payload(meta.flow, meta.dst, meta.src, meta.size, boxed),
                );
            }
        }
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn payload_pool_recycles_on_the_echo_path() {
    let mut sim = Sim::new(3);
    let a = sim.add_agent(Box::new(PoolPing {
        out: None,
        replies: 100,
        seen: Vec::new(),
    }));
    let b = sim.add_agent(Box::new(PoolPing {
        out: None,
        replies: 100,
        seen: Vec::new(),
    }));
    let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(2));
    let (ab, ba) = sim.add_link(a, b, spec.clone(), spec);
    sim.agent_mut::<PoolPing>(a).out = Some(ab);
    sim.agent_mut::<PoolPing>(b).out = Some(ba);
    sim.with_agent_ctx::<PoolPing, _>(a, |_, ctx| {
        let boxed = ctx.alloc_payload(0u64);
        ctx.send(ab, Packet::with_boxed_payload(FlowId(1), a, b, 500, boxed));
    });
    sim.run_to_completion();
    // a sends 0; each side answers value + 1 until its 100 replies are
    // spent, so b sees every even value up to 200.
    let want: Vec<u64> = (0..=100).map(|i| 2 * i).collect();
    assert_eq!(
        sim.agent::<PoolPing>(b).seen,
        want,
        "pooling must be value-transparent"
    );
    let hits = sim
        .metrics()
        .snapshot()
        .get(simtrace::names::NET_POOL_HITS)
        .unwrap_or(0);
    assert!(
        hits > 50,
        "steady-state ping-pong must reuse boxes ({hits})"
    );
}
