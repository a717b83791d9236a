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
//!   with JSONL ([`JsonlSink`]) and CSV ([`CsvSink`]) exporters. Producers
//!   (`ConnTrace`, `Capture`) convert their native samples/events into
//!   records; exporting is opt-in, so the hot path pays nothing when
//!   tracing is disabled.
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

pub use flightrec::FlightRecorder;
pub use metrics::{Counter, CounterSnapshot, Gauge, MetricValue, Registry};
pub use prof::{ProfSnapshot, ProfSpan};
pub use record::{kind, TraceRecord};
pub use runtime::ScopeAnnotation;
pub use sink::{export_counters, CsvSink, EventSink, JsonlSink, VecSink};

/// Canonical metric names. Producers register by these constants so the
/// catalogue stays greppable and `suss-trace diff` output lines up across
/// runs.
pub mod names {
    /// Simulator events dispatched (one per timer/packet delivery).
    pub const NET_EVENTS: &str = "net.events_processed";
    /// Simulator events scheduled (pushes into the event queue).
    pub const NET_EVENTS_SCHEDULED: &str = "net.events_scheduled";
    /// Far timers cascaded from the scheduler's overflow heap into the
    /// timer wheel.
    pub const NET_SCHED_CASCADES: &str = "net.sched_cascades";
    /// Same-tick same-link arrivals coalesced into an earlier dispatch's
    /// batch. Stored in every cached `FlowStats`, so it is part of each
    /// campaign fingerprint.
    pub const NET_SCHED_BATCHED: &str = "net.sched_batched";
    /// Events addressed to a retired agent slot (stale timers from a
    /// torn-down flow, packets in flight at teardown). Dropped on arrival.
    pub const NET_ORPHAN_EVENTS: &str = "net.orphan_events";
    /// Payload allocations served from the recycled-buffer pool.
    pub const NET_POOL_HITS: &str = "net.pool_hits";
    /// Payload allocations that fell through to the global allocator.
    pub const NET_POOL_MISSES: &str = "net.pool_misses";
    /// Packets dropped by a full link queue.
    pub const NET_QUEUE_DROPS: &str = "net.queue_drops";
    /// Packets dropped by an AQM decision (CoDel head drops; excludes
    /// overflow tail drops, which count under `net.queue_drops`).
    pub const NET_AQM_DROPS: &str = "net.aqm_drops";
    /// High-water mark of any link queue backlog, in bytes (gauge).
    pub const NET_QUEUE_DEPTH_HWM: &str = "net.queue_depth_hwm_bytes";
    /// Data segments sent (including retransmissions).
    pub const TCP_SEGS_SENT: &str = "tcp.segs_sent";
    /// Segments retransmitted.
    pub const TCP_RETRANSMITS: &str = "tcp.retransmits";
    /// Retransmission timeouts fired.
    pub const TCP_RTOS: &str = "tcp.rtos";
    /// Fast retransmits (triple duplicate ACK / SACK recovery entries).
    pub const TCP_FAST_RETRANSMITS: &str = "tcp.fast_retransmits";
    /// Voluntary slow-start exits (HyStart-style, without packet loss).
    pub const CC_HYSTART_EXITS: &str = "cc.hystart_exits";
    /// SUSS pacing rounds started (one per predicted-growth period).
    pub const SUSS_PACING_ROUNDS: &str = "suss.pacing_rounds";
    /// Fault-injection actions taken by a link fault plan (GE-burst drops,
    /// flap drops, reorder hold-backs, duplications).
    pub const NET_FAULTS_INJECTED: &str = "net.faults_injected";
    /// Link flap recoveries dispatched (one per scheduled outage window).
    pub const NET_LINK_FLAPS: &str = "net.link_flaps";
    /// Fleet flows spawned (arrival events realized as live senders).
    pub const FLEET_FLOWS_SPAWNED: &str = "fleet.flows_spawned";
    /// Fleet flows fully delivered and torn down.
    pub const FLEET_FLOWS_COMPLETED: &str = "fleet.flows_completed";
    /// Fleet flows still incomplete at the drain horizon (torn down
    /// without an FCT sample).
    pub const FLEET_FLOWS_EXPIRED: &str = "fleet.flows_expired";
    /// Endpoint slot pairs (sender+receiver nodes, edge links, routes)
    /// created — the peak-concurrency footprint.
    pub const FLEET_SLOTS_CREATED: &str = "fleet.slots_created";
    /// Flows installed into a recycled slot instead of a fresh one.
    pub const FLEET_SLOT_REUSES: &str = "fleet.slot_reuses";
    /// Flows whose ConnTrace sampling was suppressed by the
    /// concurrent-flow cap.
    pub const FLEET_TRACES_SUPPRESSED: &str = "fleet.traces_suppressed";
    /// QUIC packets transmitted (new data and retransmissions alike —
    /// every transmission gets a fresh packet number).
    pub const QUIC_PKTS_SENT: &str = "quic.pkts_sent";
    /// QUIC packets carrying retransmitted stream bytes.
    pub const QUIC_RETRANSMITS: &str = "quic.retransmits";
    /// QUIC packets declared lost by the detector (packet threshold or
    /// time threshold).
    pub const QUIC_PKTS_LOST: &str = "quic.pkts_lost";
    /// QUIC probe-timeout (PTO) expirations.
    pub const QUIC_PTOS: &str = "quic.ptos";
    /// QUIC ACK frames transmitted.
    pub const QUIC_ACKS_SENT: &str = "quic.acks_sent";
    /// Sends deferred by the QUIC pacing strategy (one per armed pacing
    /// timer; the knob the pacing-strategy matrix turns).
    pub const QUIC_PACE_DELAYS: &str = "quic.pace_delays";
    /// Campaign cells abandoned by the wall-clock watchdog.
    pub const RUNNER_CELL_TIMEOUTS: &str = "runner.cell_timeouts";
    /// Campaign cells that ended a run without a result (panicked or
    /// timed out).
    pub const RUNNER_CELLS_FAILED: &str = "runner.cells_failed";
    /// Cache entries that failed to load and were quarantined on disk.
    pub const RUNNER_CACHE_QUARANTINED: &str = "runner.cache_quarantined";
    /// Orphaned cells from dead shards recomputed inline at merge time.
    pub const RUNNER_CELLS_REASSIGNED: &str = "runner.cells_reassigned";
}
