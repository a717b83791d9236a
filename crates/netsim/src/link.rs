//! Link models: serialization rate, propagation delay, jitter, random loss.
//!
//! A [`LinkSpec`] describes one *direction* of a link ("half-link"): its
//! (possibly time-varying) rate, propagation delay, a `netem`-style jitter
//! model, an i.i.d. loss probability, and the egress queue that forms when
//! packets arrive faster than the link drains. The engine (`sim` module)
//! drives the half-link state machine: enqueue → serialize → propagate.

use crate::bandwidth::Bandwidth;
use crate::faults::{FaultPlan, FaultState, FlapWindow};
use crate::packet::{NodeId, Packet};
use crate::queue::{CodelQueue, DropTailQueue, QueueStats};
use crate::rng::SimRng;
use crate::time::SimTime;
use std::time::Duration;

/// Queue discipline for a half-link's egress buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Qdisc {
    /// Classic tail-drop FIFO (the paper's testbed default).
    DropTail,
    /// CoDel AQM with RFC 8289's 5 ms target and 100 ms interval.
    Codel,
}

/// The concrete egress queue behind a [`Qdisc`].
pub(crate) enum LinkQueue {
    DropTail(DropTailQueue),
    Codel(CodelQueue),
}

impl LinkQueue {
    pub(crate) fn new(qdisc: Qdisc, capacity: u64) -> Self {
        match qdisc {
            Qdisc::DropTail => LinkQueue::DropTail(DropTailQueue::new(capacity)),
            Qdisc::Codel => LinkQueue::Codel(CodelQueue::new(capacity)),
        }
    }

    pub(crate) fn enqueue(&mut self, pkt: Packet, now: SimTime) -> Result<(), Packet> {
        match self {
            LinkQueue::DropTail(q) => q.enqueue(pkt),
            LinkQueue::Codel(q) => q.enqueue_at(pkt, now.as_nanos()),
        }
    }

    pub(crate) fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        match self {
            LinkQueue::DropTail(q) => q.dequeue(),
            LinkQueue::Codel(q) => q.dequeue_at(now.as_nanos()),
        }
    }

    pub(crate) fn backlog_bytes(&self) -> u64 {
        match self {
            LinkQueue::DropTail(q) => q.backlog_bytes(),
            LinkQueue::Codel(q) => q.backlog_bytes(),
        }
    }

    pub(crate) fn stats(&self) -> QueueStats {
        match self {
            LinkQueue::DropTail(q) => q.stats(),
            LinkQueue::Codel(q) => q.stats(),
        }
    }
}

/// A piecewise-constant link-rate schedule.
///
/// Used to model bottleneck-bandwidth variation (paper Appendix B): the rate
/// in effect at time `t` is the value of the latest step at or before `t`.
#[derive(Debug, Clone)]
pub struct RateSchedule {
    /// `(effective_from, rate)` steps, sorted by time; first entry must be at t=0.
    steps: Vec<(SimTime, Bandwidth)>,
}

impl RateSchedule {
    /// A constant rate for the whole simulation.
    pub fn constant(rate: Bandwidth) -> Self {
        RateSchedule {
            steps: vec![(SimTime::ZERO, rate)],
        }
    }

    /// A schedule from explicit steps.
    ///
    /// # Panics
    /// Panics if `steps` is empty, unsorted, or does not start at t=0.
    pub fn steps(steps: Vec<(SimTime, Bandwidth)>) -> Self {
        assert!(!steps.is_empty(), "empty rate schedule");
        assert_eq!(steps[0].0, SimTime::ZERO, "rate schedule must start at t=0");
        assert!(
            steps.windows(2).all(|w| w[0].0 < w[1].0),
            "rate schedule steps must be strictly increasing in time"
        );
        RateSchedule { steps }
    }

    /// The rate in effect at time `t`.
    pub fn rate_at(&self, t: SimTime) -> Bandwidth {
        match self.steps.binary_search_by(|(st, _)| st.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1, // unreachable given the t=0 invariant
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The base (t=0) rate; used for BDP-based buffer sizing.
    pub fn base_rate(&self) -> Bandwidth {
        self.steps[0].1
    }
}

/// `netem`-style jitter: per-packet delay variation, optionally correlated.
///
/// Each packet's extra delay is `max(0, N(0, std_dev))`, low-pass filtered
/// with coefficient `correlation` against the previous packet's jitter —
/// exactly the (approximate) correlation model `netem` documents. Delivery
/// order is preserved (as when a rate-limited qdisc follows netem):
/// arrivals are clamped to FIFO order.
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Standard deviation of the per-packet delay variation.
    pub std_dev: Duration,
    /// Correlation coefficient in `[0, 1)` between consecutive samples.
    pub correlation: f64,
}

impl JitterModel {
    /// No jitter at all.
    pub fn none() -> Self {
        JitterModel {
            std_dev: Duration::ZERO,
            correlation: 0.0,
        }
    }

    /// Uncorrelated jitter with the given standard deviation.
    pub fn gaussian(std_dev: Duration) -> Self {
        JitterModel {
            std_dev,
            correlation: 0.0,
        }
    }

    /// Correlated jitter (smoother variation, typical of cellular links).
    pub fn correlated(std_dev: Duration, correlation: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&correlation),
            "correlation must be in [0,1)"
        );
        JitterModel {
            std_dev,
            correlation,
        }
    }
}

/// Static description of one direction of a link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Serialization rate (possibly time-varying).
    pub rate: RateSchedule,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Per-packet delay variation model.
    pub jitter: JitterModel,
    /// I.i.d. packet loss probability applied after serialization.
    pub loss: f64,
    /// Egress queue capacity in bytes (`u64::MAX` = unbounded).
    pub queue_bytes: u64,
    /// Egress queue discipline.
    pub qdisc: Qdisc,
    /// Deterministic fault schedule (bursty loss, flaps, reordering,
    /// duplication, delay steps); `None` injects nothing.
    pub faults: Option<FaultPlan>,
}

impl LinkSpec {
    /// A clean link: constant rate, fixed delay, no jitter/loss, unbounded queue.
    pub fn clean(rate: Bandwidth, delay: Duration) -> Self {
        LinkSpec {
            rate: RateSchedule::constant(rate),
            delay,
            jitter: JitterModel::none(),
            loss: 0.0,
            queue_bytes: u64::MAX,
            qdisc: Qdisc::DropTail,
            faults: None,
        }
    }

    /// Attach a fault plan to this half-link. An empty plan is dropped, so
    /// the link stays on the fault-free fast path.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Use a different queue discipline on the egress buffer.
    pub fn with_qdisc(mut self, qdisc: Qdisc) -> Self {
        self.qdisc = qdisc;
        self
    }

    /// Set the egress queue capacity in bytes.
    pub fn with_queue_bytes(mut self, bytes: u64) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Size the egress queue to a multiple of this link's base BDP.
    ///
    /// `rtt` is the end-to-end round-trip time of the path the buffer
    /// serves; the paper sizes bottleneck buffers as 1, 1.5 or 2 BDP.
    pub fn with_queue_bdp(mut self, rtt: Duration, multiple: f64) -> Self {
        let bdp = self.rate.base_rate().bdp_bytes(rtt);
        // Always leave room for at least a handful of full-size packets so
        // tiny-BDP configurations do not degenerate to a zero-length buffer.
        self.queue_bytes = ((bdp as f64 * multiple) as u64).max(8 * 1500);
        self
    }

    /// Set the jitter model.
    pub fn with_jitter(mut self, jitter: JitterModel) -> Self {
        self.jitter = jitter;
        self
    }

    /// Set the i.i.d. loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability out of range");
        self.loss = loss;
        self
    }

    /// Replace the constant rate with a time-varying schedule.
    pub fn with_rate_schedule(mut self, sched: RateSchedule) -> Self {
        self.rate = sched;
        self
    }
}

/// Lifetime statistics for one half-link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets dropped by the random-loss process.
    pub random_lost_pkts: u64,
    /// Packets delivered to the far end.
    pub delivered_pkts: u64,
    /// Bytes delivered to the far end.
    pub delivered_bytes: u64,
    /// Packets lost to the Gilbert–Elliott fault process.
    pub ge_lost_pkts: u64,
    /// Packets cut on the wire by a link flap.
    pub flap_lost_pkts: u64,
    /// Fault-injected duplicate deliveries.
    pub dup_pkts: u64,
    /// Packets held back by fault-injected reordering.
    pub reordered_pkts: u64,
}

/// Runtime state of one direction of a link. Driven by the engine.
pub(crate) struct HalfLink {
    pub(crate) spec: LinkSpec,
    /// Node that receives packets from this half-link.
    pub(crate) to_node: NodeId,
    /// Packet currently being serialized, if any.
    pub(crate) transmitting: Option<Packet>,
    pub(crate) queue: LinkQueue,
    /// Jitter low-pass filter state (seconds).
    pub(crate) last_jitter: f64,
    /// Arrival time of the most recent delivery (for FIFO clamping).
    pub(crate) last_arrival: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) stats: LinkStats,
    /// AQM drops already reported to the engine's registry counter.
    pub(crate) aqm_reported: u64,
    /// Fault-injection state; `None` for fault-free links, which then take
    /// no fault branches and draw no fault randomness.
    pub(crate) faults: Option<FaultState>,
}

impl HalfLink {
    pub(crate) fn new(mut spec: LinkSpec, to_node: NodeId, rng: SimRng, fault_rng: SimRng) -> Self {
        let faults = spec
            .faults
            .take()
            .filter(|p| !p.is_empty())
            .map(|p| FaultState::new(p, fault_rng));
        let queue = LinkQueue::new(spec.qdisc, spec.queue_bytes);
        HalfLink {
            spec,
            to_node,
            transmitting: None,
            queue,
            last_jitter: 0.0,
            last_arrival: SimTime::ZERO,
            rng,
            stats: LinkStats::default(),
            aqm_reported: 0,
            faults,
        }
    }

    /// Sample this packet's propagation delay including jitter.
    pub(crate) fn sample_propagation(&mut self) -> Duration {
        let j = &self.spec.jitter;
        if j.std_dev.is_zero() {
            return self.spec.delay;
        }
        let sample = self.rng.normal(0.0, j.std_dev.as_secs_f64());
        let filtered = j.correlation * self.last_jitter + (1.0 - j.correlation) * sample;
        self.last_jitter = filtered;
        let total = self.spec.delay.as_secs_f64() + filtered;
        Duration::from_secs_f64(total.max(0.0))
    }

    /// Whether the random-loss process claims this packet.
    pub(crate) fn roll_loss(&mut self) -> bool {
        self.spec.loss > 0.0 && self.rng.chance(self.spec.loss)
    }

    /// Whether the flap schedule has this link down at `now`.
    pub(crate) fn fault_down(&self, now: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| f.plan.down_at(now))
    }

    /// Step the Gilbert–Elliott chain for one packet and roll its loss.
    pub(crate) fn fault_roll_ge(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|f| f.roll_ge())
    }

    /// Roll fault-injected duplication for one delivered packet.
    pub(crate) fn fault_roll_duplicate(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|f| f.roll_duplicate())
    }

    /// Roll fault-injected reordering; `Some(extra)` holds the packet back.
    pub(crate) fn fault_roll_reorder(&mut self) -> Option<Duration> {
        self.faults.as_mut().and_then(|f| f.roll_reorder())
    }

    /// The route-change extra delay in effect at `now`.
    pub(crate) fn fault_extra_delay(&self, now: SimTime) -> Duration {
        self.faults
            .as_ref()
            .map_or(Duration::ZERO, |f| f.plan.extra_delay_at(now))
    }

    /// Scheduled flap windows (empty for fault-free links).
    pub(crate) fn flap_windows(&self) -> &[FlapWindow] {
        self.faults.as_ref().map_or(&[], |f| &f.plan.flaps)
    }

    /// Queue statistics for this half-link's egress buffer.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// AQM-initiated drops, if the qdisc is CoDel.
    pub(crate) fn aqm_drops(&self) -> u64 {
        match &self.queue {
            LinkQueue::Codel(q) => q.aqm_drops,
            LinkQueue::DropTail(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = RateSchedule::constant(Bandwidth::from_mbps(10));
        assert_eq!(s.rate_at(SimTime::ZERO), Bandwidth::from_mbps(10));
        assert_eq!(s.rate_at(SimTime::from_secs(100)), Bandwidth::from_mbps(10));
    }

    #[test]
    fn stepped_schedule_selects_latest_step() {
        let s = RateSchedule::steps(vec![
            (SimTime::ZERO, Bandwidth::from_mbps(10)),
            (SimTime::from_secs(1), Bandwidth::from_mbps(5)),
            (SimTime::from_secs(2), Bandwidth::from_mbps(20)),
        ]);
        assert_eq!(
            s.rate_at(SimTime::from_millis(999)),
            Bandwidth::from_mbps(10)
        );
        assert_eq!(s.rate_at(SimTime::from_secs(1)), Bandwidth::from_mbps(5));
        assert_eq!(
            s.rate_at(SimTime::from_millis(1500)),
            Bandwidth::from_mbps(5)
        );
        assert_eq!(s.rate_at(SimTime::from_secs(3)), Bandwidth::from_mbps(20));
    }

    #[test]
    #[should_panic]
    fn schedule_must_start_at_zero() {
        RateSchedule::steps(vec![(SimTime::from_secs(1), Bandwidth::from_mbps(1))]);
    }

    #[test]
    #[should_panic]
    fn schedule_must_be_sorted() {
        RateSchedule::steps(vec![
            (SimTime::ZERO, Bandwidth::from_mbps(1)),
            (SimTime::from_secs(2), Bandwidth::from_mbps(2)),
            (SimTime::from_secs(1), Bandwidth::from_mbps(3)),
        ]);
    }

    #[test]
    fn bdp_queue_sizing() {
        // 50 Mbps * 100 ms = 625000 B; 2 BDP = 1.25 MB
        let spec = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(10))
            .with_queue_bdp(Duration::from_millis(100), 2.0);
        assert_eq!(spec.queue_bytes, 1_250_000);
    }

    #[test]
    fn bdp_queue_has_floor() {
        let spec = LinkSpec::clean(Bandwidth::from_kbps(10), Duration::from_millis(1))
            .with_queue_bdp(Duration::from_millis(1), 0.1);
        assert!(spec.queue_bytes >= 8 * 1500);
    }

    #[test]
    fn jitterless_propagation_is_fixed() {
        let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::from_millis(20));
        let mut hl = HalfLink::new(spec, NodeId(0), SimRng::new(1), SimRng::new(99));
        for _ in 0..10 {
            assert_eq!(hl.sample_propagation(), Duration::from_millis(20));
        }
    }

    #[test]
    fn jitter_never_goes_negative() {
        let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::from_millis(1))
            .with_jitter(JitterModel::gaussian(Duration::from_millis(50)));
        let mut hl = HalfLink::new(spec, NodeId(0), SimRng::new(2), SimRng::new(99));
        for _ in 0..1000 {
            let d = hl.sample_propagation();
            assert!(d >= Duration::ZERO);
        }
    }

    #[test]
    fn correlated_jitter_is_smoother() {
        let mk = |corr: f64, seed| {
            let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::from_millis(100))
                .with_jitter(JitterModel::correlated(Duration::from_millis(10), corr));
            let mut hl = HalfLink::new(spec, NodeId(0), SimRng::new(seed), SimRng::new(99));
            let xs: Vec<f64> = (0..2000)
                .map(|_| hl.sample_propagation().as_secs_f64())
                .collect();
            // Mean absolute step between consecutive samples.
            xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (xs.len() - 1) as f64
        };
        assert!(mk(0.9, 7) < mk(0.0, 7));
    }

    #[test]
    fn loss_roll_rates() {
        let spec = LinkSpec::clean(Bandwidth::from_mbps(1), Duration::ZERO).with_loss(0.3);
        let mut hl = HalfLink::new(spec, NodeId(0), SimRng::new(3), SimRng::new(99));
        let losses = (0..10_000).filter(|_| hl.roll_loss()).count();
        let rate = losses as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic]
    fn invalid_loss_probability_rejected() {
        LinkSpec::clean(Bandwidth::from_mbps(1), Duration::ZERO).with_loss(1.5);
    }
}
