//! A store-and-forward router with static destination-based routing.

use crate::packet::{LinkId, NodeId, Packet};
use crate::sim::{Agent, Ctx};
use std::any::Any;
use std::collections::HashMap;

/// A router that forwards packets toward their destination node over
/// statically configured egress half-links.
///
/// Queueing and serialization happen on the half-links themselves, so this
/// agent only performs the routing decision — matching the paper's testbed,
/// where the Linux routers are plain forwarders and the bottleneck behaviour
/// comes from the shaped egress interface.
pub struct Router {
    routes: HashMap<NodeId, LinkId>,
    default_route: Option<LinkId>,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped for lack of a route (a topology bug if nonzero).
    pub unroutable: u64,
}

impl Router {
    /// Create a router with no routes.
    pub fn new() -> Self {
        Router {
            routes: HashMap::new(),
            default_route: None,
            forwarded: 0,
            unroutable: 0,
        }
    }

    /// Route packets destined to `dst` out of `link`.
    pub fn add_route(&mut self, dst: NodeId, link: LinkId) {
        self.routes.insert(dst, link);
    }

    /// Fallback egress for destinations without an explicit route.
    pub fn set_default_route(&mut self, link: LinkId) {
        self.default_route = Some(link);
    }

    /// The egress link that would carry a packet to `dst`, if any.
    fn route_for(&self, dst: NodeId) -> Option<LinkId> {
        self.routes.get(&dst).copied().or(self.default_route)
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Agent for Router {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match self.route_for(pkt.dst) {
            Some(link) => {
                self.forwarded += 1;
                ctx.send(link, pkt);
            }
            None => {
                self.unroutable += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::link::LinkSpec;
    use crate::packet::FlowId;
    use crate::sim::Sim;
    use crate::time::SimTime;
    use std::time::Duration;

    struct Sink {
        got: Vec<u64>,
    }
    impl Agent for Sink {
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
            self.got.push(pkt.id);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn routes_by_destination() {
        let mut sim = Sim::new(1);
        let src = sim.add_agent(Box::new(Sink { got: vec![] }));
        let r = sim.add_agent(Box::new(Router::new()));
        let d1 = sim.add_agent(Box::new(Sink { got: vec![] }));
        let d2 = sim.add_agent(Box::new(Sink { got: vec![] }));
        let spec = || LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(1));
        let src_r = sim.add_half_link(src, r, spec());
        let r_d1 = sim.add_half_link(r, d1, spec());
        let r_d2 = sim.add_half_link(r, d2, spec());
        {
            let router = sim.agent_mut::<Router>(r);
            router.add_route(d1, r_d1);
            router.add_route(d2, r_d2);
        }
        sim.with_agent_ctx::<Sink, _>(src, |_, ctx| {
            ctx.send(src_r, Packet::opaque(FlowId(1), src, d1, 100));
            ctx.send(src_r, Packet::opaque(FlowId(2), src, d2, 100));
            ctx.send(src_r, Packet::opaque(FlowId(3), src, d2, 100));
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Sink>(d1).got.len(), 1);
        assert_eq!(sim.agent::<Sink>(d2).got.len(), 2);
        assert_eq!(sim.agent::<Router>(r).forwarded, 3);
        assert_eq!(sim.agent::<Router>(r).unroutable, 0);
    }

    #[test]
    fn unroutable_counted() {
        let mut sim = Sim::new(1);
        let src = sim.add_agent(Box::new(Sink { got: vec![] }));
        let r = sim.add_agent(Box::new(Router::new()));
        let ghost = sim.add_agent(Box::new(Sink { got: vec![] }));
        let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::ZERO);
        let src_r = sim.add_half_link(src, r, spec);
        sim.with_agent_ctx::<Sink, _>(src, |_, ctx| {
            ctx.send(src_r, Packet::opaque(FlowId(1), src, ghost, 100));
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Router>(r).unroutable, 1);
    }

    #[test]
    fn default_route_catches_unknown() {
        let mut sim = Sim::new(1);
        let src = sim.add_agent(Box::new(Sink { got: vec![] }));
        let r = sim.add_agent(Box::new(Router::new()));
        let d = sim.add_agent(Box::new(Sink { got: vec![] }));
        let spec = || LinkSpec::clean(Bandwidth::from_mbps(100), Duration::ZERO);
        let src_r = sim.add_half_link(src, r, spec());
        let r_d = sim.add_half_link(r, d, spec());
        sim.agent_mut::<Router>(r).set_default_route(r_d);
        sim.with_agent_ctx::<Sink, _>(src, |_, ctx| {
            ctx.send(src_r, Packet::opaque(FlowId(1), src, d, 100));
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Sink>(d).got.len(), 1);
    }
}
