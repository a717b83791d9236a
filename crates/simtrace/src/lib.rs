//! # simtrace — unified structured telemetry for the SUSS reproduction
//!
//! Every layer of the stack (the discrete-event simulator, the transport,
//! the SUSS state machine, and the campaign runner) reports into one small
//! observability substrate:
//!
//! * [`Registry`] — a counter/gauge registry. Handles are `Rc<Cell<u64>>`
//!   behind typed wrappers ([`Counter`], [`Gauge`]), so incrementing is a
//!   single unsynchronized store: lock-free when serial. Parallel campaigns
//!   shard naturally — each simulation owns its own registry, and
//!   [`CounterSnapshot`]s merge additively (gauges merge by max), so totals
//!   are identical at any worker count.
//! * [`TraceRecord`] + [`EventSink`] — a common timestamped event schema
//!   with a JSONL exporter ([`JsonlSink`]). Producers
//!   (`ConnTrace`) convert their native samples/events into records;
//!   exporting is opt-in, so the hot path pays nothing when tracing is
//!   disabled.
//! * [`query`] — parse a JSONL trace back and answer the recurring
//!   questions: a flow's cwnd timeseries, events in a time window, counter
//!   totals, diffs between two runs. The `suss-trace` CLI bin is a thin
//!   wrapper over this module.
//! * [`runtime`] — thread-local per-cell accounting (sim events executed,
//!   scope-summary annotations) that the campaign runner samples around
//!   each cell to report events/sec and worker utilization in run
//!   manifests.
//! * [`prof`] — a span-based wall-time profiler: scoped guards in the
//!   simulator/transport hot paths attribute every nanosecond of an
//!   enabled window to a named stack path; per-cell snapshots merge into
//!   the run manifest and render via `suss-trace profile`.
//! * [`flightrec`] — a fixed-size ring of recent [`TraceRecord`]s that
//!   the resilient campaign runner dumps to disk when a cell panics or
//!   hangs, so failures come with packet-level context.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flightrec;
pub mod metrics;
pub mod prof;
pub mod query;
pub mod record;
pub mod runtime;
pub mod sink;

pub use flightrec::{FlightRecorder, WeakRecorder};
pub use metrics::{Counter, CounterSnapshot, Gauge, MetricValue, Registry};
pub use prof::{ProfSnapshot, ProfSpan};
pub use record::{kind, TraceRecord};
pub use runtime::ScopeAnnotation;
pub use sink::{create_jsonl, export_counters, EventSink, JsonlSink, VecSink};

/// Canonical metric names. Producers register by these constants so the
/// catalogue stays greppable and `suss-trace diff` output lines up across
/// runs. They are declared in byte order of their values, the order of a
/// [`CounterSnapshot`]'s metrics, which [`names::intern`] relies on to
/// find each decoded name with about one comparison.
pub mod names {
    use std::borrow::Cow;

    macro_rules! catalogue {
        ($($(#[$doc:meta])* $id:ident = $name:literal;)*) => {
            $($(#[$doc])* pub const $id: &str = $name;)*

            /// Every name above, sorted.
            pub const ALL: &[&str] = &[$($id),*];
        };
    }

    catalogue! {
        /// Voluntary slow-start exits (HyStart-style, without packet loss).
        CC_HYSTART_EXITS = "cc.hystart_exits";
        /// Fleet flows fully delivered and torn down.
        FLEET_FLOWS_COMPLETED = "fleet.flows_completed";
        /// Fleet flows still incomplete at the drain horizon (torn down
        /// without an FCT sample).
        FLEET_FLOWS_EXPIRED = "fleet.flows_expired";
        /// Fleet flows spawned (arrival events realized as live senders).
        FLEET_FLOWS_SPAWNED = "fleet.flows_spawned";
        /// Flows installed into a recycled slot instead of a fresh one.
        FLEET_SLOT_REUSES = "fleet.slot_reuses";
        /// Endpoint slot pairs (sender+receiver nodes, edge links, routes)
        /// created — the peak-concurrency footprint.
        FLEET_SLOTS_CREATED = "fleet.slots_created";
        /// Flows whose ConnTrace sampling was suppressed by the
        /// concurrent-flow cap.
        FLEET_TRACES_SUPPRESSED = "fleet.traces_suppressed";
        /// Packets dropped by an AQM decision (CoDel head drops; excludes
        /// overflow tail drops, which count under `net.queue_drops`).
        NET_AQM_DROPS = "net.aqm_drops";
        /// Simulator events dispatched (one per timer/packet delivery).
        NET_EVENTS = "net.events_processed";
        /// Simulator events scheduled (pushes into the event queue).
        NET_EVENTS_SCHEDULED = "net.events_scheduled";
        /// Fault-injection actions taken by a link fault plan (GE-burst drops,
        /// flap drops, reorder hold-backs, duplications).
        NET_FAULTS_INJECTED = "net.faults_injected";
        /// Link flap recoveries dispatched (one per scheduled outage window).
        NET_LINK_FLAPS = "net.link_flaps";
        /// Events addressed to a retired agent slot (stale timers from a
        /// torn-down flow, packets in flight at teardown). Dropped on arrival.
        NET_ORPHAN_EVENTS = "net.orphan_events";
        /// Payload allocations served from the recycled-buffer pool.
        NET_POOL_HITS = "net.pool_hits";
        /// Payload allocations that fell through to the global allocator.
        NET_POOL_MISSES = "net.pool_misses";
        /// High-water mark of any link queue backlog, in bytes (gauge).
        NET_QUEUE_DEPTH_HWM = "net.queue_depth_hwm_bytes";
        /// Packets dropped by a full link queue.
        NET_QUEUE_DROPS = "net.queue_drops";
        /// Same-tick same-link arrivals coalesced into an earlier dispatch's
        /// batch. Stored in every cached `FlowStats`, so it is part of each
        /// campaign fingerprint.
        NET_SCHED_BATCHED = "net.sched_batched";
        /// Far timers cascaded from the scheduler's overflow heap into the
        /// timer wheel.
        NET_SCHED_CASCADES = "net.sched_cascades";
        /// QUIC ACK frames transmitted.
        QUIC_ACKS_SENT = "quic.acks_sent";
        /// Sends deferred by the QUIC pacing strategy (one per armed pacing
        /// timer; the knob the pacing-strategy matrix turns).
        QUIC_PACE_DELAYS = "quic.pace_delays";
        /// QUIC packets declared lost by the detector (packet threshold or
        /// time threshold).
        QUIC_PKTS_LOST = "quic.pkts_lost";
        /// QUIC packets transmitted (new data and retransmissions alike —
        /// every transmission gets a fresh packet number).
        QUIC_PKTS_SENT = "quic.pkts_sent";
        /// QUIC probe-timeout (PTO) expirations.
        QUIC_PTOS = "quic.ptos";
        /// QUIC packets carrying retransmitted stream bytes.
        QUIC_RETRANSMITS = "quic.retransmits";
        /// SUSS pacing rounds started (one per predicted-growth period).
        SUSS_PACING_ROUNDS = "suss.pacing_rounds";
        /// Fast retransmits (triple duplicate ACK / SACK recovery entries).
        TCP_FAST_RETRANSMITS = "tcp.fast_retransmits";
        /// Segments retransmitted.
        TCP_RETRANSMITS = "tcp.retransmits";
        /// Retransmission timeouts fired.
        TCP_RTOS = "tcp.rtos";
        /// Data segments sent (including retransmissions).
        TCP_SEGS_SENT = "tcp.segs_sent";
    }

    /// `name` with a `'static` lifetime: borrowed from [`ALL`] when it is
    /// a catalogue name, so decoding a snapshot allocates no name, and
    /// copied otherwise.
    ///
    /// The search starts at `*next` and leaves it just past the match. A
    /// snapshot's names are sorted like [`ALL`], so interning them in
    /// order with one cursor costs about one length comparison per
    /// catalogue name; any other order still finds every name.
    pub fn intern(name: &str, next: &mut usize) -> Cow<'static, str> {
        let from = (*next).min(ALL.len());
        let found = ALL[from..]
            .iter()
            .position(|&n| n == name)
            .map(|i| from + i)
            .or_else(|| ALL[..from].iter().position(|&n| n == name));
        match found {
            Some(i) => {
                *next = i + 1;
                Cow::Borrowed(ALL[i])
            }
            None => Cow::Owned(name.to_string()),
        }
    }
}
