//! The discrete-event engine.
//!
//! The engine owns a set of [`Agent`]s (endpoints, routers) connected by
//! half-links, plus a single time-ordered event queue (the timer wheel in
//! `wheel.rs`). It is fully deterministic: events at equal times are
//! dispatched in insertion order, and all randomness flows from the seed
//! given at construction.
//!
//! Events are small (24 bytes): a packet between the end of its
//! serialization (`TxDone`) and its delivery waits in a per-`Sim` packet
//! slab, and its `Arrive` event carries only the slab index. Dispatch
//! moves the packet out once and hands it to [`Agent::on_packet`] by
//! value. Each step asks the wheel once for the event due by the run's
//! deadline, advancing it exactly where a peek would (`NetCore::pop_due`),
//! so `net.sched_cascades` is unchanged.
//!
//! The design follows the poll/event-driven idiom of smoltcp rather than an
//! async runtime: virtual time must be decoupled from wall-clock time for
//! reproducible experiments, and the engine is pure computation.

use crate::link::{HalfLink, LinkSpec, LinkStats};
use crate::packet::{LinkId, NodeId, Packet, PacketMeta, PayloadHandle, PayloadPool};
use crate::queue::QueueStats;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use simtrace::{Counter, Gauge, Registry};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// A simulation participant: a traffic endpoint, a router, or any other
/// packet-handling entity.
///
/// Agents are driven exclusively through these callbacks; between callbacks
/// they must not assume any passage of time. All side effects (sending,
/// arming timers) go through the [`Ctx`] handle.
pub trait Agent: Any {
    /// A packet has been delivered to this node.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// A timer armed with [`Ctx::set_timer`] has fired.
    ///
    /// Timers cannot be cancelled; agents implement cancellation by keeping
    /// a generation counter in `token` and ignoring stale firings.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>);

    /// Called once when the simulation starts (time 0), in node-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Upcast for experiment-side inspection via [`Sim::agent`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast for experiment-side mutation via [`Sim::agent_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A scheduled event: 24 bytes, so a wheel slot is 48 and the stash 32.
#[derive(Debug)]
enum EventKind {
    /// Deliver a packet to a node (via the given half-link). The packet
    /// waits in [`NetCore::parked`] at index `pkt` until dispatch.
    Arrive {
        node: NodeId,
        link: LinkId,
        pkt: u32,
    },
    /// A half-link finished serializing its current packet.
    TxDone { link: LinkId },
    /// An agent timer fires. `epoch` snapshots the arming agent's slot
    /// epoch: a timer armed by an agent that has since been retired is
    /// dropped on dispatch instead of firing into the slot's new occupant.
    Timer {
        node: NodeId,
        token: u64,
        epoch: u32,
    },
    /// A flapped link comes back up and resumes draining its queue.
    LinkRestore { link: LinkId },
}

/// Engine configuration, kept as a fieldless type: the engine has one
/// configuration. Exists only for the benchmark package under
/// `perfbench/`, which still calls [`Sim::with_engine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig;

/// What one link-scope sample measures (see [`Sim::enable_link_scope`]).
///
/// Values are plain `f64`s pushed through the scope sink; the experiment
/// layer owns the histograms, so the engine stays free of any stats
/// dependency and the sampling never schedules events or touches RNG
/// state — results are byte-identical with scope sampling on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// Egress backlog expressed as its drain time at the current link
    /// rate, in seconds. (Drop-tail queues keep no per-packet enqueue
    /// timestamps, so depth-as-drain-time is the comparable unit across
    /// qdiscs and rate schedules.)
    QueueDepth,
    /// Fraction of the sampling window the link spent serializing bytes
    /// (0–1), computed from bytes completed since the previous sample.
    Utilization,
    /// Queue wait a just-accepted packet will see before reaching the
    /// wire: the post-enqueue backlog's drain time, in seconds. A proxy
    /// for sojourn time (exact for FIFO service, which drop-tail is).
    Sojourn,
}

/// Receives link-scope samples. `Rc<RefCell<..>>` so the experiment layer
/// can share one accumulator across several instrumented links.
pub type ScopeSink = Rc<RefCell<dyn FnMut(ScopeKind, f64)>>;

/// Per-link sampling state for one [`Sim::enable_link_scope`] call.
struct LinkScopeState {
    link: LinkId,
    /// Sample cadence: every N-th transmission / enqueue.
    every: u64,
    tx_seen: u64,
    enq_seen: u64,
    /// Utilization window start and bytes serialized since.
    window_start: SimTime,
    window_bytes: u64,
    sink: ScopeSink,
}

/// Engine internals shared between the dispatcher and agent callbacks.
struct NetCore {
    now: SimTime,
    seq: u64,
    events: Box<TimerWheel<EventKind>>,
    /// One event popped ahead of its dispatch by the batching lookahead:
    /// always the globally next event, replayed before touching the queue.
    stash: Option<(SimTime, EventKind)>,
    /// Packets between `TxDone` and delivery, indexed by
    /// [`EventKind::Arrive`]'s `pkt`; `parked_free` lists the empty slots.
    parked: Vec<Option<Packet>>,
    parked_free: Vec<u32>,
    links: Vec<HalfLink>,
    /// Per-slot reuse epoch, bumped by [`Sim::retire_agent`]; lives here
    /// (not in [`Sim`]) so [`Ctx::set_timer`] can stamp timers with it.
    agent_epochs: Vec<u32>,
    next_packet_id: u64,
    /// Links with time-series scope sampling enabled (usually 0–2 entries;
    /// the hot path pays one `is_empty` check when none are registered).
    scopes: Vec<LinkScopeState>,
    pool: PayloadPool,
    ctr_orphan_events: Counter,
    ctr_batched: Counter,
    ctr_queue_drops: Counter,
    ctr_aqm_drops: Counter,
    ctr_events_scheduled: Counter,
    ctr_pool_hits: Counter,
    ctr_pool_misses: Counter,
    ctr_faults_injected: Counter,
    ctr_link_flaps: Counter,
    gauge_queue_hwm: Gauge,
}

impl NetCore {
    /// Pop the globally next event if it is due by `deadline`, honoring
    /// the batching stash. One wheel call either way: it advances the
    /// wheel exactly where a peek would, so `net.sched_cascades` sees the
    /// same trajectory whether or not the event is due.
    ///
    /// That trajectory is part of every cached result: an event pushed
    /// while the wheel sits on an earlier tick may land in the overflow
    /// heap and cascade later, so the wheel must advance where it always
    /// has. That is also why the batch loop in `Sim::dispatch_arrive`
    /// pops the event closing a same-tick group into the stash instead of
    /// peeking at it (see DESIGN.md §5d).
    ///
    /// The stash was globally next when it was set, but host code (e.g. a
    /// workload driver spawning a flow between steps) can push an earlier
    /// event afterwards, so the stash must race the queue head here. The
    /// stash wins ties: it was popped — and tie-broken — first.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind)> {
        match &self.stash {
            Some((at, _)) => {
                let at = *at;
                let head = self.events.pop_if(|q| q < at && q <= deadline);
                if head.is_none() && at <= deadline {
                    return self.stash.take();
                }
                head
            }
            None => self.events.pop_if(|q| q <= deadline),
        }
    }

    /// Hold a packet for its `Arrive` event; returns its slab index.
    #[inline]
    fn park(&mut self, pkt: Packet) -> u32 {
        match self.parked_free.pop() {
            Some(i) => {
                // A free slot is empty: fill it without a drop check,
                // which would stage the packet on the stack first.
                debug_assert!(self.parked[i as usize].is_none());
                self.parked[i as usize].get_or_insert(pkt);
                i
            }
            None => {
                let i = u32::try_from(self.parked.len()).expect("packet slab full");
                self.parked.push(Some(pkt));
                i
            }
        }
    }

    /// Take a parked packet out for delivery, freeing its slot.
    #[inline]
    fn unpark(&mut self, i: u32) -> Packet {
        let pkt = self.parked[i as usize]
            .take()
            .expect("arrival slot holds a packet");
        self.parked_free.push(i);
        pkt
    }

    /// Always inlined, with [`TimerWheel::push`], so each caller builds
    /// its event in place in the wheel slot: passed by reference, an event
    /// written to the stack field by field and reloaded whole stalls on
    /// store forwarding.
    #[inline(always)]
    fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.seq += 1;
        self.ctr_events_scheduled.inc();
        self.events.push(at.max(self.now), self.seq, kind);
    }

    /// Offer a packet to a half-link for transmission.
    fn link_send(&mut self, link: LinkId, mut pkt: Packet) {
        pkt.id = self.next_packet_id;
        self.next_packet_id += 1;
        let now = self.now;
        let hl = &mut self.links[link.index()];
        if hl.transmitting.is_none() && !hl.fault_down(now) {
            // Link idle: begin serializing immediately.
            let rate = hl.spec.rate.rate_at(now);
            let done = now + rate.tx_time(u64::from(pkt.size));
            hl.transmitting = Some(pkt);
            self.push(done, EventKind::TxDone { link });
        } else if hl.queue.enqueue(pkt, now).is_err() {
            // Dropped by the qdisc: counted by the queue's own stats.
            self.ctr_queue_drops.inc();
            return;
        } else {
            let backlog = self.links[link.index()].queue.backlog_bytes();
            self.gauge_queue_hwm.observe(backlog);
        }
        self.scope_on_offer(link);
    }

    /// Scope hook: a packet was accepted for transmission (straight to the
    /// wire or enqueued). Samples the sojourn-time proxy at the configured
    /// cadence; a no-op (one `is_empty` check) when no scope is enabled.
    fn scope_on_offer(&mut self, link: LinkId) {
        if self.scopes.is_empty() {
            return;
        }
        let now = self.now;
        let links = &self.links;
        let Some(s) = self.scopes.iter_mut().find(|s| s.link == link) else {
            return;
        };
        s.enq_seen += 1;
        if s.enq_seen % s.every != 0 {
            return;
        }
        let hl = &links[link.index()];
        let wait = hl
            .spec
            .rate
            .rate_at(now)
            .tx_time(hl.queue.backlog_bytes())
            .as_secs_f64();
        let sink = s.sink.clone();
        (sink.borrow_mut())(ScopeKind::Sojourn, wait);
    }

    /// Scope hook: a packet finished serializing on `link`. Accumulates
    /// the utilization window and, at the configured cadence, emits queue
    /// depth and utilization samples.
    fn scope_on_tx(&mut self, link: LinkId, pkt_bytes: u64) {
        if self.scopes.is_empty() {
            return;
        }
        let now = self.now;
        let links = &self.links;
        let Some(s) = self.scopes.iter_mut().find(|s| s.link == link) else {
            return;
        };
        s.window_bytes += pkt_bytes;
        s.tx_seen += 1;
        if s.tx_seen % s.every != 0 {
            return;
        }
        let hl = &links[link.index()];
        let rate = hl.spec.rate.rate_at(now);
        let depth = rate.tx_time(hl.queue.backlog_bytes()).as_secs_f64();
        let busy = rate.tx_time(s.window_bytes).as_secs_f64();
        let elapsed = now.saturating_since(s.window_start).as_secs_f64();
        // A zero-length window means back-to-back completions at one
        // instant: the wire was busy the whole (empty) window.
        let util = if elapsed > 0.0 {
            (busy / elapsed).min(1.0)
        } else {
            1.0
        };
        s.window_start = now;
        s.window_bytes = 0;
        let sink = s.sink.clone();
        let mut f = sink.borrow_mut();
        f(ScopeKind::QueueDepth, depth);
        f(ScopeKind::Utilization, util);
    }

    /// A half-link finished serializing: propagate the packet and start the
    /// next one from the queue, if any.
    fn link_tx_done(&mut self, link: LinkId) {
        let now = self.now;
        let hl = &mut self.links[link.index()];
        let pkt = hl
            .transmitting
            .take()
            .expect("TxDone with no packet in flight");
        hl.stats.tx_pkts += 1;
        hl.stats.tx_bytes += u64::from(pkt.size);
        self.scope_on_tx(link, u64::from(pkt.size));

        let hl = &mut self.links[link.index()];
        if hl.fault_down(now) {
            // The link flapped while this packet was on the wire: it is
            // cut, and the queue holds until the restore event drains it.
            hl.stats.flap_lost_pkts += 1;
            self.ctr_faults_injected.inc();
            return;
        }

        let iid_lost = hl.roll_loss();
        // The GE chain steps once per transmitted packet, independent of
        // the i.i.d. outcome, so burst statistics match the model exactly.
        let ge_lost = hl.fault_roll_ge();
        if iid_lost || ge_lost {
            if iid_lost {
                hl.stats.random_lost_pkts += 1;
            } else {
                hl.stats.ge_lost_pkts += 1;
                self.ctr_faults_injected.inc();
            }
        } else {
            let dup = hl.fault_roll_duplicate();
            let held_back = hl.fault_roll_reorder();
            let prop = hl.sample_propagation();
            let mut arrival = now + prop + hl.fault_extra_delay(now);
            match held_back {
                Some(extra) => {
                    // Held-back delivery: packets behind it overtake, so it
                    // neither clamps to nor advances the FIFO frontier.
                    arrival += extra;
                    hl.stats.reordered_pkts += 1;
                }
                None => {
                    arrival = arrival.max(hl.last_arrival);
                    hl.last_arrival = arrival;
                }
            }
            hl.stats.delivered_pkts += 1;
            hl.stats.delivered_bytes += u64::from(pkt.size);
            let node = hl.to_node;
            let twin = if dup { pkt.clone_for_duplicate() } else { None };
            if twin.is_some() {
                hl.stats.dup_pkts += 1;
                hl.stats.delivered_pkts += 1;
                hl.stats.delivered_bytes += u64::from(pkt.size);
            }
            let injected = u64::from(held_back.is_some()) + u64::from(twin.is_some());
            if injected > 0 {
                self.ctr_faults_injected.add(injected);
            }
            let pkt = self.park(pkt);
            self.push(arrival, EventKind::Arrive { node, link, pkt });
            if let Some(twin) = twin {
                let pkt = self.park(twin);
                self.push(arrival, EventKind::Arrive { node, link, pkt });
            }
        }

        // Chain the next queued packet.
        let hl = &mut self.links[link.index()];
        let next = hl.queue.dequeue(now);
        // AQM may have head-dropped while selecting `next`; surface the
        // delta through the registry.
        let aqm = hl.aqm_drops();
        let aqm_delta = aqm - hl.aqm_reported;
        hl.aqm_reported = aqm;
        if aqm_delta > 0 {
            self.ctr_aqm_drops.add(aqm_delta);
        }
        if let Some(next) = next {
            let hl = &mut self.links[link.index()];
            let rate = hl.spec.rate.rate_at(now);
            let done = now + rate.tx_time(u64::from(next.size));
            hl.transmitting = Some(next);
            self.push(done, EventKind::TxDone { link });
        }
    }

    /// A flapped link came back up: resume draining the egress queue.
    fn link_restore(&mut self, link: LinkId) {
        self.ctr_link_flaps.inc();
        let now = self.now;
        let hl = &mut self.links[link.index()];
        if hl.transmitting.is_some() || hl.fault_down(now) {
            return;
        }
        let next = hl.queue.dequeue(now);
        let aqm = hl.aqm_drops();
        let aqm_delta = aqm - hl.aqm_reported;
        hl.aqm_reported = aqm;
        if aqm_delta > 0 {
            self.ctr_aqm_drops.add(aqm_delta);
        }
        if let Some(next) = next {
            let hl = &mut self.links[link.index()];
            let rate = hl.spec.rate.rate_at(now);
            let done = now + rate.tx_time(u64::from(next.size));
            hl.transmitting = Some(next);
            self.push(done, EventKind::TxDone { link });
        }
    }
}

/// The handle through which an agent interacts with the world during a
/// callback.
pub struct Ctx<'a> {
    core: &'a mut NetCore,
    agent: NodeId,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the agent being called back.
    pub fn self_id(&self) -> NodeId {
        self.agent
    }

    /// Transmit a packet on an outgoing half-link.
    ///
    /// The packet is serialized at the link rate (queueing behind any
    /// backlog), propagated, and delivered to the far end's `on_packet`.
    pub fn send(&mut self, link: LinkId, pkt: Packet) {
        self.core.link_send(link, pkt);
    }

    /// Arm a one-shot timer for this agent at absolute time `at`.
    ///
    /// Multiple timers may be pending; they are distinguished by `token`.
    /// Timers cannot be cancelled — ignore stale tokens in `on_timer`.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        let node = self.agent;
        let epoch = self.core.agent_epochs[node.index()];
        self.core.push(
            at.max(self.core.now),
            EventKind::Timer { node, token, epoch },
        );
    }

    /// Box a payload through the engine's recycled-buffer pool.
    ///
    /// Pair with [`Packet::with_boxed_payload`]; on the steady-state path
    /// this reuses a box freed by an earlier [`Ctx::take_payload`] instead
    /// of hitting the allocator.
    pub fn alloc_payload<T: Any + Clone>(&mut self, value: T) -> PayloadHandle {
        let (boxed, hit) = self.core.pool.boxed(value);
        if hit {
            self.core.ctr_pool_hits.inc();
        } else {
            self.core.ctr_pool_misses.inc();
        }
        PayloadHandle::of::<T>(boxed)
    }

    /// Take a packet's payload downcast to `T`, recycling its box into the
    /// engine pool. The allocation-free counterpart of
    /// [`Packet::take_payload`].
    pub fn take_payload<T: Any + Default>(
        &mut self,
        pkt: Packet,
    ) -> Result<(T, PacketMeta), Packet> {
        pkt.take_payload_with(&mut self.core.pool)
    }
}

/// The simulation: agents + links + event queue.
pub struct Sim {
    core: NetCore,
    agents: Vec<Option<Box<dyn Agent>>>,
    rng: SimRng,
    started: bool,
    events_dispatched: u64,
    metrics: Registry,
    ctr_events: Counter,
    ctr_cascades: Counter,
    cascades_reported: u64,
}

impl Sim {
    /// Create an empty simulation with the given experiment seed.
    pub fn new(seed: u64) -> Self {
        let metrics = Registry::new();
        let ctr_events = metrics.counter(simtrace::names::NET_EVENTS);
        let ctr_cascades = metrics.counter(simtrace::names::NET_SCHED_CASCADES);
        let ctr_events_scheduled = metrics.counter(simtrace::names::NET_EVENTS_SCHEDULED);
        let ctr_pool_hits = metrics.counter(simtrace::names::NET_POOL_HITS);
        let ctr_pool_misses = metrics.counter(simtrace::names::NET_POOL_MISSES);
        let ctr_queue_drops = metrics.counter(simtrace::names::NET_QUEUE_DROPS);
        let ctr_aqm_drops = metrics.counter(simtrace::names::NET_AQM_DROPS);
        let ctr_faults_injected = metrics.counter(simtrace::names::NET_FAULTS_INJECTED);
        let ctr_link_flaps = metrics.counter(simtrace::names::NET_LINK_FLAPS);
        let gauge_queue_hwm = metrics.gauge(simtrace::names::NET_QUEUE_DEPTH_HWM);
        let ctr_orphan_events = metrics.counter(simtrace::names::NET_ORPHAN_EVENTS);
        let ctr_batched = metrics.counter(simtrace::names::NET_SCHED_BATCHED);
        Sim {
            core: NetCore {
                now: SimTime::ZERO,
                seq: 0,
                events: Box::new(TimerWheel::new()),
                stash: None,
                parked: Vec::new(),
                parked_free: Vec::new(),
                links: Vec::new(),
                agent_epochs: Vec::new(),
                next_packet_id: 1,
                scopes: Vec::new(),
                pool: PayloadPool::default(),
                ctr_orphan_events,
                ctr_batched,
                ctr_queue_drops,
                ctr_aqm_drops,
                ctr_events_scheduled,
                ctr_pool_hits,
                ctr_pool_misses,
                ctr_faults_injected,
                ctr_link_flaps,
                gauge_queue_hwm,
            },
            agents: Vec::new(),
            rng: SimRng::new(seed),
            started: false,
            events_dispatched: 0,
            metrics,
            ctr_events,
            ctr_cascades,
            cascades_reported: 0,
        }
    }

    /// [`Sim::new`] under another name. Exists only for the benchmark
    /// package under `perfbench/`; the engine has one configuration.
    pub fn with_engine(seed: u64, _engine: EngineConfig) -> Self {
        Self::new(seed)
    }

    /// The simulation's metric registry. Endpoints wired into this sim
    /// register their counters here so one snapshot covers the whole run.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Register an agent, returning its node id.
    ///
    /// Agents added before the first [`Sim::step`] get their
    /// [`Agent::on_start`] at time 0 in node-id order; an agent added to
    /// a *running* simulation gets it immediately (at the current time),
    /// so dynamically spawned endpoints can arm their start timers.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> NodeId {
        let id = NodeId(u32::try_from(self.agents.len()).expect("too many agents"));
        self.agents.push(Some(agent));
        self.core.agent_epochs.push(0);
        if self.started {
            self.run_on_start(id);
        }
        id
    }

    /// Remove the agent occupying `id`, returning it for inspection.
    ///
    /// The slot's epoch is bumped, so pending timers armed by the retired
    /// agent die silently on dispatch (counted as `net.orphan_events`)
    /// instead of firing into whatever occupies the slot next. Packets
    /// already in flight toward the empty slot are likewise dropped and
    /// counted. This is the teardown half of dynamic flow lifecycle:
    /// dropping the returned box frees all per-flow state.
    ///
    /// # Panics
    /// Panics if the slot is empty (already retired) or under dispatch.
    pub fn retire_agent(&mut self, id: NodeId) -> Box<dyn Agent> {
        let agent = self.agents[id.index()]
            .take()
            .expect("retire_agent on an empty or dispatching slot");
        self.core.agent_epochs[id.index()] += 1;
        agent
    }

    /// Install an agent into a retired slot (the spawn half of dynamic
    /// flow lifecycle — node ids, links, and routes wired to the slot are
    /// reused). Runs [`Agent::on_start`] immediately if the simulation
    /// has started.
    ///
    /// # Panics
    /// Panics if the slot is still occupied.
    pub fn install_agent_at(&mut self, id: NodeId, agent: Box<dyn Agent>) {
        let slot = &mut self.agents[id.index()];
        assert!(slot.is_none(), "install_agent_at over a live agent");
        *slot = Some(agent);
        if self.started {
            self.run_on_start(id);
        }
    }

    fn run_on_start(&mut self, id: NodeId) {
        let mut agent = self.agents[id.index()].take().expect("agent just added");
        let mut ctx = Ctx {
            core: &mut self.core,
            agent: id,
        };
        agent.on_start(&mut ctx);
        self.agents[id.index()] = Some(agent);
    }

    /// Create a unidirectional half-link from `from`'s egress to `to`.
    ///
    /// Returns the [`LinkId`] that `from` passes to [`Ctx::send`].
    pub fn add_half_link(&mut self, _from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(u32::try_from(self.core.links.len()).expect("too many links"));
        let rng = self.rng.fork_labeled(0x11C0 + id.0 as u64);
        // Fault draws come from their own labelled substream, so attaching
        // a plan never perturbs the link's jitter/loss stream.
        let fault_rng = self.rng.fork_labeled(0xFA17_0000 + id.0 as u64);
        let hl = HalfLink::new(spec, to, rng, fault_rng);
        // One restore event per scheduled outage resumes the queue drain;
        // fault-free links schedule nothing extra.
        let ups: Vec<SimTime> = hl.flap_windows().iter().map(|w| w.up).collect();
        self.core.links.push(hl);
        for up in ups {
            self.core.push(up, EventKind::LinkRestore { link: id });
        }
        id
    }

    /// Create a bidirectional link; returns `(a_to_b, b_to_a)` half-link ids.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkSpec,
        b_to_a: LinkSpec,
    ) -> (LinkId, LinkId) {
        (
            self.add_half_link(a, b, a_to_b),
            self.add_half_link(b, a, b_to_a),
        )
    }

    /// Fork a deterministic RNG substream for agent construction.
    pub fn fork_rng(&mut self, label: u64) -> SimRng {
        self.rng.fork_labeled(label)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events dispatched so far (diagnostic).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Borrow an agent downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node id is stale or the type does not match.
    pub fn agent<T: Agent>(&self, id: NodeId) -> &T {
        self.agents[id.index()]
            .as_ref()
            .expect("agent is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("agent type mismatch")
    }

    /// Mutably borrow an agent downcast to its concrete type.
    pub fn agent_mut<T: Agent>(&mut self, id: NodeId) -> &mut T {
        self.agents[id.index()]
            .as_mut()
            .expect("agent is being dispatched")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("agent type mismatch")
    }

    /// Lifetime statistics for a half-link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.core.links[link.index()].stats
    }

    /// Queue statistics for a half-link's egress buffer.
    pub fn link_queue_stats(&self, link: LinkId) -> QueueStats {
        self.core.links[link.index()].queue_stats()
    }

    /// AQM-initiated drops on a half-link (0 for drop-tail links).
    pub fn link_aqm_drops(&self, link: LinkId) -> u64 {
        self.core.links[link.index()].aqm_drops()
    }

    /// Enable time-series scope sampling on a half-link: every `every`-th
    /// packet completion emits [`ScopeKind::QueueDepth`] and
    /// [`ScopeKind::Utilization`] samples, and every `every`-th accepted
    /// packet emits a [`ScopeKind::Sojourn`] sample, all through `sink`.
    ///
    /// Purely observational: sampling schedules no events, draws no
    /// randomness, and registers no metrics, so enabling it cannot change
    /// simulation results. Several links may share one sink.
    pub fn enable_link_scope(&mut self, link: LinkId, every: u64, sink: ScopeSink) {
        self.core.scopes.push(LinkScopeState {
            link,
            every: every.max(1),
            tx_seen: 0,
            enq_seen: 0,
            window_start: self.core.now,
            window_bytes: 0,
            sink,
        });
    }

    /// Invoke a closure with mutable access to an agent plus a [`Ctx`],
    /// outside of packet/timer dispatch. Used by experiment drivers to
    /// start flows at t=0 or inject control actions at a sampled instant.
    pub fn with_agent_ctx<T: Agent, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut agent = self.agents[id.index()]
            .take()
            .expect("agent is being dispatched");
        let mut ctx = Ctx {
            core: &mut self.core,
            agent: id,
        };
        let r = f(
            agent
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("agent type mismatch"),
            &mut ctx,
        );
        self.agents[id.index()] = Some(agent);
        r
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            let id = NodeId(i as u32);
            let mut agent = self.agents[i].take().expect("agent missing at start");
            let mut ctx = Ctx {
                core: &mut self.core,
                agent: id,
            };
            agent.on_start(&mut ctx);
            self.agents[i] = Some(agent);
        }
    }

    /// Per-event dispatch bookkeeping, shared by [`Sim::step`] and the
    /// same-tick batch loop so batched members are accounted exactly like
    /// individually stepped events.
    fn account_dispatch(&mut self) {
        self.events_dispatched += 1;
        if self.events_dispatched & 0xFFF == 0 {
            // Flight-recorder breadcrumb every 4096 events: a post-mortem
            // dump always carries a recent progress marker, placing the
            // crash on the virtual-time axis. Inert (closure not run)
            // unless a recorder is installed on this thread.
            let now_ns = self.core.now.as_nanos();
            let dispatched = self.events_dispatched;
            simtrace::flightrec::record_with(|| {
                simtrace::TraceRecord::metric(
                    now_ns,
                    simtrace::kind::COUNTER,
                    simtrace::names::NET_EVENTS,
                    dispatched,
                )
            });
        }
        self.ctr_events.inc();
        let cascades = self.core.events.cascades();
        if cascades != self.cascades_reported {
            self.ctr_cascades.add(cascades - self.cascades_reported);
            self.cascades_reported = cascades;
        }
    }

    /// Deliver an arrival, then keep delivering as long as the *globally
    /// next* event is another arrival for the same node over the same link
    /// at the same instant. The whole tick group shares one agent
    /// take/put-back; because members are popped in `(time, seq)` order
    /// and the first non-member is stashed for the next [`Sim::step`],
    /// dispatch order (and therefore every result) is the global
    /// `(time, seq)` order. Only the `net.sched_batched` counter sees it.
    fn dispatch_arrive(&mut self, at: SimTime, node: NodeId, link: LinkId, pkt: u32) {
        let pkt = self.core.unpark(pkt);
        let Some(mut agent) = self.agents[node.index()].take() else {
            // The flow this packet belonged to has been torn down.
            self.core.ctr_orphan_events.inc();
            return;
        };
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                agent: node,
            };
            agent.on_packet(pkt, &mut ctx);
        }
        // Coalesce only while the stash slot is free: when an earlier
        // batch already stashed an event (and a host push then overtook
        // it, so this dispatch came from the queue instead), stashing a
        // second non-member would overwrite — and silently drop — the
        // first. Skipping coalescing never changes dispatch order, so
        // results stay byte-identical either way.
        while self.core.stash.is_none() {
            match self.core.events.pop() {
                Some((
                    t,
                    EventKind::Arrive {
                        node: n,
                        link: l,
                        pkt: p,
                    },
                )) if t == at && n == node && l == link => {
                    self.account_dispatch();
                    self.core.ctr_batched.inc();
                    let p = self.core.unpark(p);
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        agent: node,
                    };
                    agent.on_packet(p, &mut ctx);
                }
                Some(other) => {
                    self.core.stash = Some(other);
                    break;
                }
                None => break,
            }
        }
        self.agents[node.index()] = Some(agent);
    }

    /// Dispatch the next event, together with the same-instant arrivals
    /// for the same node over the same link that follow it (one step).
    /// Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.step_due(SimTime::MAX)
    }

    /// [`Sim::step`] if the next event is due by `deadline`, without the
    /// start check: the `run_*` loops make it once per call.
    fn step_due(&mut self, deadline: SimTime) -> bool {
        let Some((at, kind)) = self.core.pop_due(deadline) else {
            return false;
        };
        debug_assert!(
            at >= self.core.now,
            "time went backwards: event at {at}, now {}",
            self.core.now
        );
        self.core.now = at;
        // The enclosing span owns pop/accounting overhead as self time;
        // the per-kind child spans tile the dispatch itself.
        let _step = simtrace::prof::span("sim/step");
        self.account_dispatch();
        match kind {
            EventKind::TxDone { link } => {
                let _s = simtrace::prof::span("sim/txdone");
                self.core.link_tx_done(link);
            }
            EventKind::Arrive { node, link, pkt } => {
                let _s = simtrace::prof::span("sim/arrive");
                self.dispatch_arrive(at, node, link, pkt);
            }
            EventKind::Timer { node, token, epoch } => {
                let _s = simtrace::prof::span("sim/timer");
                if self.core.agent_epochs[node.index()] != epoch {
                    // Armed by a since-retired occupant of this slot.
                    self.core.ctr_orphan_events.inc();
                } else if let Some(mut agent) = self.agents[node.index()].take() {
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        agent: node,
                    };
                    agent.on_timer(token, &mut ctx);
                    self.agents[node.index()] = Some(agent);
                } else {
                    self.core.ctr_orphan_events.inc();
                }
            }
            EventKind::LinkRestore { link } => {
                let _s = simtrace::prof::span("sim/restore");
                self.core.link_restore(link);
            }
        }
        true
    }

    /// Run until the event queue is empty or `deadline` is reached.
    ///
    /// Time is advanced to exactly `deadline` if the queue drains early or
    /// the next event lies beyond it (the event stays queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while self.step_due(deadline) {}
        self.core.now = self.core.now.max(deadline);
    }

    /// Run while `pred` holds and events remain, up to `deadline`.
    ///
    /// `pred` is evaluated between steps, not between events: a group of
    /// same-instant arrivals for one node over one link is dispatched as
    /// one step (see [`Sim::step`]), so `pred` sees the whole group or none
    /// of it. Use it to stop when e.g. all flows have completed.
    pub fn run_while(&mut self, deadline: SimTime, mut pred: impl FnMut(&Sim) -> bool) {
        self.ensure_started();
        while pred(self) && self.step_due(deadline) {}
    }

    /// Drain every remaining event (use with a workload that terminates).
    pub fn run_to_completion(&mut self) {
        self.ensure_started();
        while self.step_due(SimTime::MAX) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::packet::FlowId;
    use std::time::Duration;

    /// Test agent: echoes every packet back on a configured link and
    /// records arrival times.
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
                let back = Packet::opaque(pkt.flow, pkt.dst, pkt.src, pkt.size);
                ctx.send(out, back);
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

    fn two_nodes(rate: Bandwidth, delay: Duration) -> (Sim, NodeId, NodeId, LinkId, LinkId) {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let (ab, ba) = sim.add_link(
            a,
            b,
            LinkSpec::clean(rate, delay),
            LinkSpec::clean(rate, delay),
        );
        (sim, a, b, ab, ba)
    }

    #[test]
    fn packet_arrives_after_serialization_plus_propagation() {
        let (mut sim, a, b, ab, _) = two_nodes(Bandwidth::from_mbps(1), Duration::from_millis(10));
        // 125 B at 1 Mbps = 1 ms serialization; +10 ms propagation = 11 ms.
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
        });
        sim.run_to_completion();
        let got = &sim.agent::<Echo>(b).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_millis(11));
    }

    #[test]
    fn back_to_back_packets_queue_behind_serialization() {
        let (mut sim, a, b, ab, _) = two_nodes(Bandwidth::from_mbps(1), Duration::ZERO);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
        });
        sim.run_to_completion();
        let got = &sim.agent::<Echo>(b).got;
        let times: Vec<SimTime> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_millis(1),
                SimTime::from_millis(2),
                SimTime::from_millis(3)
            ]
        );
    }

    #[test]
    fn echo_round_trip() {
        let (mut sim, a, b, ab, ba) = two_nodes(Bandwidth::from_mbps(10), Duration::from_millis(5));
        sim.agent_mut::<Echo>(b).out = Some(ba);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1250));
        });
        sim.run_to_completion();
        // a -> b: 1 ms tx + 5 ms prop = 6 ms; echo b -> a: another 6 ms.
        let got = &sim.agent::<Echo>(a).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_millis(12));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.set_timer(SimTime::from_millis(30), 3);
            ctx.set_timer(SimTime::from_millis(10), 1);
            ctx.set_timer(SimTime::from_millis(20), 2);
        });
        sim.run_to_completion();
        let log = &sim.agent::<Echo>(a).timer_log;
        assert_eq!(
            log,
            &vec![
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2),
                (SimTime::from_millis(30), 3)
            ]
        );
    }

    #[test]
    fn simultaneous_events_dispatch_in_insertion_order() {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for token in 0..10 {
                ctx.set_timer(SimTime::from_millis(5), token);
            }
        });
        sim.run_to_completion();
        let tokens: Vec<u64> = sim
            .agent::<Echo>(a)
            .timer_log
            .iter()
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.set_timer(SimTime::from_millis(10), 1);
            ctx.set_timer(SimTime::from_millis(100), 2);
        });
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.now(), SimTime::from_millis(50));
        assert_eq!(sim.agent::<Echo>(a).timer_log.len(), 1);
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sim.agent::<Echo>(a).timer_log.len(), 2);
    }

    #[test]
    fn droptail_drops_show_in_queue_stats() {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        // Tiny queue: one extra packet fits behind the transmitting one.
        let spec = LinkSpec::clean(Bandwidth::from_kbps(8), Duration::ZERO).with_queue_bytes(125);
        let ab = sim.add_half_link(a, b, spec);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for _ in 0..5 {
                ctx.send(ab, Packet::opaque(FlowId(1), a, b, 125));
            }
        });
        sim.run_to_completion();
        assert_eq!(sim.agent::<Echo>(b).got.len(), 2);
        assert_eq!(sim.link_queue_stats(ab).dropped_pkts, 3);
        // The engine's counter and the link's wire tally agree with the
        // queue: 1 transmitting + 1 queued serialized, 3 dropped.
        let snap = sim.metrics().snapshot();
        assert_eq!(snap.get(simtrace::names::NET_QUEUE_DROPS), Some(3));
        assert_eq!(sim.link_stats(ab).tx_pkts, 2);
    }

    #[test]
    fn random_loss_drops_packets() {
        let mut sim = Sim::new(42);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::ZERO).with_loss(0.5);
        let ab = sim.add_half_link(a, b, spec);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for _ in 0..1000 {
                ctx.send(ab, Packet::opaque(FlowId(1), a, b, 100));
            }
        });
        sim.run_to_completion();
        let delivered = sim.agent::<Echo>(b).got.len();
        assert!((380..=620).contains(&delivered), "delivered {delivered}");
        let stats = sim.link_stats(ab);
        assert_eq!(stats.random_lost_pkts as usize, 1000 - delivered);
        // Every packet is serialized, then either delivered or lost.
        assert_eq!(stats.tx_pkts, 1000);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let a = sim.add_agent(Box::new(Echo::new()));
            let b = sim.add_agent(Box::new(Echo::new()));
            let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(3))
                .with_jitter(crate::link::JitterModel::gaussian(Duration::from_millis(1)))
                .with_loss(0.05);
            let ab = sim.add_half_link(a, b, spec);
            sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
                for _ in 0..200 {
                    ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
                }
            });
            sim.run_to_completion();
            sim.agent::<Echo>(b).got.clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fifo_preserved_under_jitter_by_default() {
        let mut sim = Sim::new(3);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(5))
            .with_jitter(crate::link::JitterModel::gaussian(Duration::from_millis(
                20,
            )));
        let ab = sim.add_half_link(a, b, spec);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for _ in 0..500 {
                ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
            }
        });
        sim.run_to_completion();
        let ids: Vec<u64> = sim.agent::<Echo>(b).got.iter().map(|(_, id)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "jitter must not reorder by default");
    }

    #[test]
    fn time_varying_rate_slows_delivery() {
        use crate::link::RateSchedule;
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let sched = RateSchedule::steps(vec![
            (SimTime::ZERO, Bandwidth::from_mbps(10)),
            (SimTime::from_millis(1), Bandwidth::from_mbps(1)),
        ]);
        let spec =
            LinkSpec::clean(Bandwidth::from_mbps(10), Duration::ZERO).with_rate_schedule(sched);
        let ab = sim.add_half_link(a, b, spec);
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            // 1250 B at 10 Mbps = 1 ms: finishes exactly as the rate drops.
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1250));
            // Next packet serializes at the post-step 1 Mbps: 10 ms more.
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1250));
        });
        sim.run_to_completion();
        let got = &sim.agent::<Echo>(b).got;
        assert_eq!(got[0].0, SimTime::from_millis(1));
        assert_eq!(got[1].0, SimTime::from_millis(11));
    }

    /// Records whether `on_start` ran and when.
    struct Starter {
        started_at: Option<SimTime>,
    }

    impl Agent for Starter {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.started_at = Some(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn late_added_agents_get_on_start() {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Starter { started_at: None }));
        sim.with_agent_ctx::<Starter, _>(a, |_, ctx| {
            ctx.set_timer(SimTime::from_millis(5), 0);
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.agent::<Starter>(a).started_at, Some(SimTime::ZERO));
        // Mid-run additions start at the current instant, not t = 0.
        let b = sim.add_agent(Box::new(Starter { started_at: None }));
        assert_eq!(
            sim.agent::<Starter>(b).started_at,
            Some(SimTime::from_millis(10))
        );
    }

    #[test]
    fn retired_agent_timers_become_orphans() {
        let mut sim = Sim::new(1);
        let a = sim.add_agent(Box::new(Echo::new()));
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.set_timer(SimTime::from_millis(5), 1);
            ctx.set_timer(SimTime::from_millis(15), 2);
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.agent::<Echo>(a).timer_log.len(), 1);
        // Retire the flow; its pending 15 ms timer must die silently, and
        // the replacement occupying the same slot must never see it.
        let old = sim.retire_agent(a);
        assert_eq!(
            old.as_any().downcast_ref::<Echo>().unwrap().timer_log.len(),
            1
        );
        sim.install_agent_at(a, Box::new(Echo::new()));
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.set_timer(SimTime::from_millis(20), 3);
        });
        sim.run_to_completion();
        let log = &sim.agent::<Echo>(a).timer_log;
        assert_eq!(log, &vec![(SimTime::from_millis(20), 3)]);
        let orphans = sim
            .metrics()
            .snapshot()
            .get(simtrace::names::NET_ORPHAN_EVENTS)
            .unwrap_or(0);
        assert_eq!(orphans, 1, "the stale timer must be counted");
    }

    #[test]
    fn packets_in_flight_at_teardown_are_orphaned() {
        let (mut sim, a, b, ab, _) = two_nodes(Bandwidth::from_mbps(10), Duration::from_millis(5));
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1250));
        });
        sim.run_until(SimTime::from_millis(2));
        // Tear b down while the packet is still propagating toward it.
        let _ = sim.retire_agent(b);
        sim.run_to_completion();
        let orphans = sim
            .metrics()
            .snapshot()
            .get(simtrace::names::NET_ORPHAN_EVENTS)
            .unwrap_or(0);
        assert_eq!(orphans, 1, "delivery to an empty slot must be dropped");
        // The orphaned packet left the slab too.
        assert!(sim.core.parked.iter().all(Option::is_none));
        assert_eq!(sim.core.parked_free.len(), sim.core.parked.len());
    }

    #[test]
    fn events_stay_small() {
        // A packet rides in the slab, not in its event: the wheel slot
        // and the batching stash copy 24 bytes per event, not 72.
        assert_eq!(std::mem::size_of::<EventKind>(), 24);
        assert_eq!(std::mem::size_of::<Option<(SimTime, EventKind)>>(), 32);
    }

    #[test]
    fn link_scope_samples_without_perturbing_results() {
        let run = |scoped: bool| {
            let mut sim = Sim::new(11);
            let a = sim.add_agent(Box::new(Echo::new()));
            let b = sim.add_agent(Box::new(Echo::new()));
            // Slow link + small queue: real backlog builds, some drops.
            let spec = LinkSpec::clean(Bandwidth::from_kbps(64), Duration::from_millis(2))
                .with_queue_bytes(4_000);
            let ab = sim.add_half_link(a, b, spec);
            let samples: Rc<RefCell<Vec<(ScopeKind, f64)>>> = Rc::new(RefCell::new(Vec::new()));
            if scoped {
                let s = samples.clone();
                let sink: ScopeSink =
                    Rc::new(RefCell::new(move |k, v| s.borrow_mut().push((k, v))));
                sim.enable_link_scope(ab, 1, sink);
            }
            sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
                for _ in 0..40 {
                    ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1000));
                }
            });
            sim.run_to_completion();
            let got = sim.agent::<Echo>(b).got.clone();
            let taken = samples.borrow().clone();
            (got, taken)
        };
        let (base, no_samples) = run(false);
        let (scoped, samples) = run(true);
        assert_eq!(base, scoped, "scope sampling must not change delivery");
        assert!(no_samples.is_empty());
        let n = |k: ScopeKind| samples.iter().filter(|(x, _)| *x == k).count();
        assert!(n(ScopeKind::QueueDepth) > 0);
        assert!(n(ScopeKind::Utilization) > 0);
        assert!(n(ScopeKind::Sojourn) > 0);
        // Backlogged link: some sojourn proxies must be positive, and
        // utilization is bounded.
        assert!(samples
            .iter()
            .any(|(k, v)| *k == ScopeKind::Sojourn && *v > 0.0));
        assert!(samples
            .iter()
            .filter(|(k, _)| *k == ScopeKind::Utilization)
            .all(|(_, v)| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn occupied_stash_survives_interleaved_host_pushes() {
        // Regression: a batch loop stashes the first non-member it pops.
        // If host code then pushes *earlier* events (a workload driver
        // spawning a flow between run_until calls), those dispatch before
        // the stashed event — and a batched dispatch among them must not
        // overwrite the occupied stash, or the stashed event is silently
        // lost.
        use crate::faults::FaultPlan;
        let mut sim = Sim::new(3);
        let c = sim.add_agent(Box::new(Echo::new()));
        let d = sim.add_agent(Box::new(Echo::new()));
        // Duplication twins arrive at the same instant over one link, so
        // d's dispatch enters the batch loop and stashes what follows.
        let cd = sim.add_half_link(
            c,
            d,
            LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(1))
                .with_faults(FaultPlan::new().with_duplicate(1.0)),
        );
        let a = sim.add_agent(Box::new(Echo::new()));
        let b = sim.add_agent(Box::new(Echo::new()));
        let ab = sim.add_half_link(
            a,
            b,
            LinkSpec::clean(Bandwidth::from_mbps(100), Duration::ZERO),
        );

        // c's far timer is the globally next event after the twins, so the
        // twin batch pops and stashes it.
        sim.with_agent_ctx::<Echo, _>(c, |_, ctx| {
            ctx.set_timer(SimTime::from_millis(10), 42);
            ctx.send(cd, Packet::opaque(FlowId(1), c, d, 1250));
        });
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.agent::<Echo>(d).got.len(), 2, "twins must arrive");

        // Host pushes work that overtakes the stashed 10 ms timer.
        sim.with_agent_ctx::<Echo, _>(a, |_, ctx| {
            for _ in 0..4 {
                ctx.send(ab, Packet::opaque(FlowId(2), a, b, 1250));
            }
        });
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.agent::<Echo>(b).got.len(), 4);
        // The stashed timer must still fire, exactly once, on time.
        assert_eq!(
            sim.agent::<Echo>(c).timer_log,
            vec![(SimTime::from_millis(10), 42)]
        );
        let batched = sim
            .metrics()
            .snapshot()
            .get(simtrace::names::NET_SCHED_BATCHED)
            .unwrap_or(0);
        assert!(batched >= 1, "the twin delivery must have batched");
    }
}
