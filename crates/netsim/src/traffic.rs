//! Background (cross-) traffic sources.
//!
//! The paper's Internet-scale paths carry uncontrolled cross traffic; the
//! local testbed controls it with competing TCP flows. This module adds a
//! third option: open-loop Poisson packet sources (exponential gaps, a
//! stand-in for aggregated Internet load) that occupy a configurable
//! share of a bottleneck without reacting to congestion — useful for
//! studying SUSS against *unresponsive* load.

use crate::bandwidth::Bandwidth;
use crate::packet::{FlowId, LinkId, NodeId, Packet};
use crate::rng::SimRng;
use crate::sim::{Agent, Ctx};
use crate::time::SimTime;
use std::any::Any;
use std::time::Duration;

/// An open-loop traffic source: emits `packet_bytes`-sized packets toward
/// `sink` as a Poisson process of mean rate `rate`, between `start` and
/// `stop`.
pub struct TrafficSource {
    flow: FlowId,
    sink: NodeId,
    out: Option<LinkId>,
    rate: Bandwidth,
    packet_bytes: u32,
    start: SimTime,
    stop: SimTime,
    rng: SimRng,
    /// Packets emitted.
    pub sent: u64,
}

impl TrafficSource {
    /// Create a source; wire its egress with [`set_egress`](Self::set_egress).
    pub fn new(
        flow: FlowId,
        sink: NodeId,
        rate: Bandwidth,
        packet_bytes: u32,
        start: SimTime,
        stop: SimTime,
        rng: SimRng,
    ) -> Self {
        assert!(rate.as_bps() > 0, "traffic source needs a positive rate");
        TrafficSource {
            flow,
            sink,
            out: None,
            rate,
            packet_bytes,
            start,
            stop,
            rng,
            sent: 0,
        }
    }

    /// Wire the egress half-link.
    pub fn set_egress(&mut self, link: LinkId) {
        self.out = Some(link);
    }

    fn mean_gap(&self) -> Duration {
        Duration::from_secs_f64(self.packet_bytes as f64 * 8.0 / self.rate.as_bps() as f64)
    }

    fn next_gap(&mut self) -> Duration {
        Duration::from_secs_f64(self.rng.exponential(self.mean_gap().as_secs_f64()))
    }
}

impl Agent for TrafficSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        // Open loop: ignores everything it receives.
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now >= self.stop {
            return;
        }
        if let Some(out) = self.out {
            let me = ctx.self_id();
            ctx.send(
                out,
                Packet::opaque(self.flow, me, self.sink, self.packet_bytes),
            );
            self.sent += 1;
        }
        let gap = self.next_gap();
        ctx.set_timer(now + gap, 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A sink that counts what it receives (the far end of a traffic source).
#[derive(Default)]
pub struct TrafficSink {
    /// Packets received.
    pub received: u64,
    /// Bytes received.
    pub bytes: u64,
}

impl TrafficSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Agent for TrafficSink {
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.received += 1;
        self.bytes += u64::from(pkt.size);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Sim;

    fn build(rate_mbps: u64, secs: u64) -> (Sim, NodeId, u64) {
        let mut sim = Sim::new(9);
        let sink = sim.add_agent(Box::new(TrafficSink::new()));
        let rng = sim.fork_rng(0xBEEF);
        let src = sim.add_agent(Box::new(TrafficSource::new(
            FlowId(99),
            sink,
            Bandwidth::from_mbps(rate_mbps),
            1_250,
            SimTime::ZERO,
            SimTime::from_secs(secs),
            rng,
        )));
        let link = sim.add_half_link(
            src,
            sink,
            LinkSpec::clean(Bandwidth::from_mbps(1000), Duration::from_millis(1)),
        );
        sim.agent_mut::<TrafficSource>(src).set_egress(link);
        sim.run_until(SimTime::from_secs(secs + 1));
        let got = sim.agent::<TrafficSink>(sink).bytes;
        (sim, sink, got)
    }

    #[test]
    fn poisson_hits_target_rate_on_average() {
        let (_, _, bytes) = build(10, 10);
        let expect = 12.5e6;
        assert!(
            (bytes as f64 - expect).abs() / expect < 0.05,
            "bytes {bytes} vs expect {expect}"
        );
    }

    #[test]
    fn respects_stop_time() {
        let (sim, _, _) = build(10, 1);
        // No events should remain long after stop.
        assert!(sim.now() >= SimTime::from_secs(1));
    }
}
