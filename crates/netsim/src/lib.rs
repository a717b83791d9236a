//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate for the SUSS reproduction: a packet-level, byte-accurate
//! network simulator with virtual time. It models exactly the elements the
//! paper's testbeds exercise:
//!
//! * links with serialization rate (optionally time-varying, Appendix B),
//!   propagation delay, `netem`-style correlated jitter, and i.i.d. loss;
//! * drop-tail bottleneck buffers sized in BDP multiples;
//! * store-and-forward routers;
//! * dumbbell and single-path topologies.
//!
//! The engine is single-threaded and fully deterministic — two runs with
//! the same seed produce bit-identical traces, which is what lets the
//! experiment harness run SUSS-on vs. SUSS-off over *identical* network
//! conditions (the simulator's equivalent of the paper's 50-iteration
//! A/B download batches).
//!
//! ## Example
//!
//! ```
//! use netsim::{Sim, Agent, Ctx, Packet, FlowId, LinkSpec, Bandwidth, SimTime};
//! use std::any::Any;
//! use std::time::Duration;
//!
//! struct Counter { got: usize }
//! impl Agent for Counter {
//!     fn on_packet(&mut self, _p: Packet, _ctx: &mut Ctx<'_>) { self.got += 1; }
//!     fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {}
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Sim::new(42);
//! let a = sim.add_agent(Box::new(Counter { got: 0 }));
//! let b = sim.add_agent(Box::new(Counter { got: 0 }));
//! let ab = sim.add_half_link(a, b, LinkSpec::clean(
//!     Bandwidth::from_mbps(10), Duration::from_millis(5)));
//! sim.with_agent_ctx::<Counter, _>(a, |_, ctx| {
//!     ctx.send(ab, Packet::opaque(FlowId(1), a, b, 1500));
//! });
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.agent::<Counter>(b).got, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod faults;
pub mod link;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod router;
pub mod sim;
pub mod time;
pub mod topology;
pub mod traffic;
mod wheel;

pub use bandwidth::Bandwidth;
pub use faults::{FaultPlan, FlapWindow, GilbertElliott, ReorderModel};
pub use link::{JitterModel, LinkSpec, LinkStats, Qdisc, RateSchedule};
pub use packet::{FlowId, LinkId, NodeId, Packet, PacketMeta, PayloadHandle, PayloadPool};
pub use queue::{CodelQueue, DropTailQueue, QueueStats};
pub use rng::SimRng;
pub use router::Router;
pub use sim::{Agent, Ctx, EngineConfig, ScopeKind, ScopeSink, Sim};
pub use time::SimTime;
pub use topology::{
    build_dumbbell, build_parking_lot, Dumbbell, DumbbellSpec, ParkingLot, ParkingLotSpec,
};
pub use traffic::{ArrivalProcess, TrafficSink, TrafficSource};
