//! Per-layer metrics from a traced repetition.
//!
//! The campaign's wall time splits into: each layer's self time inside
//! the cell spans, the *untracked* part of the runner-measured cell time
//! that no cell span covers, and simrunner's own overhead (the campaign
//! call minus the runner-measured cell time). Shares are fractions of the
//! campaign wall time, so all rows sum to 1.

use crate::stats::ratio;
use crate::trace::{Kind, Tally};
use crate::workloads::{TracedRun, Transport};
use serde::Json;
use simtrace::names;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// A metric from its parts.
pub fn m(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The report's layers and the span kinds whose self time each owns.
pub const LAYERS: [(&str, &[Kind]); 5] = [
    ("experiments", &[Kind::Cell]),
    ("netsim", &[Kind::Sim]),
    ("tcp-sim", &[Kind::TcpSender, Kind::TcpReceiver]),
    ("quic-sim", &[Kind::QuicSender, Kind::QuicReceiver]),
    ("cc-algos+suss-core", &[Kind::CcOnAck, Kind::CcOther]),
];

/// Calls and self ns of a layer within `t`.
pub fn layer(t: &Tally, kinds: &[Kind]) -> (u64, u64) {
    kinds.iter().fold((0, 0), |(c, ns), &k| {
        let a = t.get(k);
        (c + a.calls, ns + a.self_ns)
    })
}

/// Time decomposition of a traced repetition, ns.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// Sum of every cell span's tally.
    pub tally: Tally,
    /// Runner-measured cell time (manifest busy time).
    pub cell_ns: f64,
    /// Cell time not covered by cell spans.
    pub untracked_ns: f64,
    /// Campaign call minus cell time.
    pub simrunner_ns: f64,
    /// The campaign call.
    pub campaign_ns: f64,
}

/// Decompose a traced repetition's wall time.
pub fn split(t: &TracedRun) -> Split {
    let mut tally = Tally::default();
    for c in &t.cells {
        tally.add(&c.span.tally);
    }
    let spans_ns: f64 = t.cells.iter().map(|c| c.span.dur_ns as f64).sum();
    let cell_ns = t.manifest.worker_busy_secs * 1e9;
    let campaign_ns = t.campaign_s * 1e9;
    Split {
        tally,
        cell_ns,
        untracked_ns: (cell_ns - spans_ns).max(0.0),
        simrunner_ns: (campaign_ns - cell_ns).max(0.0),
        campaign_ns,
    }
}

fn on_ack_ns(t: &TracedRun, cc: &str) -> f64 {
    let (calls, ns) = t
        .cells
        .iter()
        .filter(|c| c.cc == cc)
        .map(|c| c.span.tally.get(Kind::CcOnAck))
        .fold((0u64, 0u64), |(c, n), a| (c + a.calls, n + a.self_ns));
    ratio(ns as f64, calls as f64)
}

/// Every per-layer metric of a traced repetition, plus the two fleet
/// counts on fleet; `untraced_s` is the same campaign's untraced wall
/// time.
pub fn metrics(t: &TracedRun, untraced_s: f64) -> Vec<Metric> {
    let s = split(t);
    let ctr = |name: &str| t.counters.get(name).unwrap_or(0) as f64;
    let flows = |tr: Transport| -> f64 {
        t.cells
            .iter()
            .filter(|c| c.transport == tr)
            .map(|c| c.flows as f64)
            .sum()
    };
    let (tcp_flows, quic_flows) = (flows(Transport::Tcp), flows(Transport::Quic));
    let events = ctr(names::NET_EVENTS);
    let segs = ctr(names::TCP_SEGS_SENT);
    let pkts = ctr(names::QUIC_PKTS_SENT);
    let self_ns = |k: Kind| s.tally.get(k).self_ns as f64;
    let share = |kinds: &[Kind]| ratio(layer(&s.tally, kinds).1 as f64, s.campaign_ns);
    let (cc_calls, _) = layer(&s.tally, LAYERS[4].1);
    let suss_flows: f64 = t
        .cells
        .iter()
        .filter(|c| c.cc == "cubic+suss")
        .map(|c| c.flows as f64)
        .sum();
    let (cubic, suss) = (on_ack_ns(t, "cubic"), on_ack_ns(t, "cubic+suss"));
    let total_cells = t.manifest.total_cells as f64;
    let mut out = vec![
        m(
            "netsim.self_ns_per_event",
            ratio(self_ns(Kind::Sim), events),
            "ns",
        ),
        m(
            "netsim.events_per_flow",
            ratio(events, tcp_flows + quic_flows),
            "count",
        ),
        m(
            "netsim.cascades_per_kevent",
            ratio(ctr(names::NET_SCHED_CASCADES) * 1e3, events),
            "count",
        ),
        m(
            "netsim.pool_hit_ratio",
            ratio(
                ctr(names::NET_POOL_HITS),
                ctr(names::NET_POOL_HITS) + ctr(names::NET_POOL_MISSES),
            ),
            "ratio",
        ),
        m(
            "netsim.orphan_ratio",
            ratio(ctr(names::NET_ORPHAN_EVENTS), events),
            "ratio",
        ),
        m("netsim.share", share(LAYERS[1].1), "ratio"),
        m(
            "tcp.sender_self_ns_per_seg",
            ratio(self_ns(Kind::TcpSender), segs),
            "ns",
        ),
        m(
            "tcp.receiver_ns_per_seg",
            ratio(self_ns(Kind::TcpReceiver), segs),
            "ns",
        ),
        m("tcp.segs_per_flow", ratio(segs, tcp_flows), "count"),
        m(
            "tcp.useful_ratio",
            if segs > 0.0 {
                1.0 - ctr(names::TCP_RETRANSMITS) / segs
            } else {
                0.0
            },
            "ratio",
        ),
        m("tcp.share", share(LAYERS[2].1), "ratio"),
        m(
            "quic.sender_self_ns_per_pkt",
            ratio(self_ns(Kind::QuicSender), pkts),
            "ns",
        ),
        m(
            "quic.receiver_ns_per_pkt",
            ratio(self_ns(Kind::QuicReceiver), pkts),
            "ns",
        ),
        m("quic.pkts_per_flow", ratio(pkts, quic_flows), "count"),
        m(
            "quic.useful_ratio",
            if pkts > 0.0 {
                1.0 - ctr(names::QUIC_RETRANSMITS) / pkts
            } else {
                0.0
            },
            "ratio",
        ),
        m("quic.share", share(LAYERS[3].1), "ratio"),
        m("cc.on_ack_ns.cubic", cubic, "ns"),
        m("cc.on_ack_ns.cubic_suss", suss, "ns"),
        m("cc.on_ack_ns.bbr", on_ack_ns(t, "bbr"), "ns"),
        m(
            "cc.calls_per_seg",
            ratio(cc_calls as f64, segs + pkts),
            "count",
        ),
        m("cc.share", share(LAYERS[4].1), "ratio"),
        m(
            "suss.extra_ns_per_ack",
            if cubic > 0.0 && suss > 0.0 {
                suss - cubic
            } else {
                0.0
            },
            "ns",
        ),
        m(
            "suss.pacing_rounds_per_flow",
            ratio(ctr(names::SUSS_PACING_ROUNDS), suss_flows),
            "count",
        ),
        m(
            "experiments.driver_ms_per_cell",
            ratio(self_ns(Kind::Cell) / 1e6, t.cells.len() as f64),
            "ms",
        ),
        m("experiments.share", share(LAYERS[0].1), "ratio"),
        m(
            "simrunner.overhead_us_per_cell",
            ratio(s.simrunner_ns / 1e3, total_cells),
            "us",
        ),
        m(
            "simrunner.share",
            ratio(s.simrunner_ns, s.campaign_ns),
            "ratio",
        ),
        m("simrunner.cache_store_us", t.io.store_us, "us"),
        m("simrunner.cache_load_us", t.io.load_us, "us"),
        m(
            "simrunner.cache_hit_ratio",
            ratio(t.manifest.cache_hits as f64, total_cells),
            "ratio",
        ),
        m("simrunner.manifest_write_ms", t.io.manifest_write_ms, "ms"),
        m("simrunner.fingerprint_ms", t.io.fingerprint_ms, "ms"),
        m("serde.json_parse_us", t.io.parse_us, "us"),
        m("serde.json_render_us", t.io.render_us, "us"),
        m(
            "trace.overhead_ratio",
            ratio(t.campaign_s, untraced_s),
            "ratio",
        ),
        m(
            "trace.untracked_share",
            ratio(s.untracked_ns, s.campaign_ns),
            "ratio",
        ),
    ];
    if let Some((peak, reuse)) = t.fleet {
        out.push(m("fleet.peak_concurrent", peak, "count"));
        out.push(m("fleet.slot_reuse_ratio", reuse, "ratio"));
    }
    out
}

/// The layer table: calls, self ms and share of the campaign per layer,
/// then the untracked remainder, simrunner, and the two totals.
pub fn table(t: &TracedRun) -> String {
    let s = split(t);
    let mut out = String::new();
    let pct = |ns: f64| 100.0 * ratio(ns, s.campaign_ns);
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>8}\n",
        "layer", "calls", "self_ms", "share%"
    ));
    for (name, kinds) in LAYERS {
        let (calls, ns) = layer(&s.tally, kinds);
        out.push_str(&format!(
            "{name:<20} {calls:>12} {:>12.3} {:>8.2}\n",
            ns as f64 / 1e6,
            pct(ns as f64)
        ));
    }
    out.push_str(&format!(
        "{:<20} {:>12} {:>12.3} {:>8.2}\n",
        "(untracked)",
        "",
        s.untracked_ns / 1e6,
        pct(s.untracked_ns)
    ));
    out.push_str(&format!(
        "{:<20} {:>12} {:>12.3} {:>8.2}   (layers + untracked = {:.3} ms)\n",
        "= cell time",
        t.manifest.total_cells - t.manifest.cache_hits,
        s.cell_ns / 1e6,
        pct(s.cell_ns),
        (s.tally.total_ns() as f64 + s.untracked_ns) / 1e6
    ));
    out.push_str(&format!(
        "{:<20} {:>12} {:>12.3} {:>8.2}\n",
        "simrunner",
        t.manifest.total_cells,
        s.simrunner_ns / 1e6,
        pct(s.simrunner_ns)
    ));
    out.push_str(&format!(
        "{:<20} {:>12} {:>12.3} {:>8.2}\n",
        "= campaign",
        "",
        s.campaign_ns / 1e6,
        100.0
    ));
    out
}

/// The trace file: the campaign span, each cell span (tagged with its
/// id, parent and label) with its per-kind calls and self time, and the
/// decomposition totals.
pub fn trace_json(workload: &str, seed: u64, t: &TracedRun) -> Json {
    let s = split(t);
    let num = |x: f64| Json::Num(x);
    let kinds = |tally: &Tally| {
        Json::Obj(
            Kind::ALL
                .iter()
                .filter(|&&k| tally.get(k).calls > 0)
                .map(|&k| {
                    let a = tally.get(k);
                    (
                        k.name().to_string(),
                        Json::Obj(vec![
                            ("calls".into(), num(a.calls as f64)),
                            ("self_ns".into(), num(a.self_ns as f64)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let cells = t
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Json::Obj(vec![
                ("id".into(), num((i + 1) as f64)),
                ("parent".into(), num(0.0)),
                ("span".into(), Json::Str(Kind::Cell.name().into())),
                ("label".into(), Json::Str(c.label.clone())),
                ("cc".into(), Json::Str(c.cc.clone())),
                ("flows".into(), num(c.flows as f64)),
                ("start_ns".into(), num(c.span.start_ns as f64)),
                ("dur_ns".into(), num(c.span.dur_ns as f64)),
                ("kinds".into(), kinds(&c.span.tally)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), num(seed as f64)),
        (
            "fingerprint".into(),
            Json::Str(t.manifest.fingerprint.clone()),
        ),
        (
            "campaign".into(),
            Json::Obj(vec![
                ("id".into(), num(0.0)),
                ("span".into(), Json::Str("simrunner/campaign".into())),
                ("dur_ns".into(), num(s.campaign_ns)),
                ("cell_ns".into(), num(s.cell_ns)),
                ("untracked_ns".into(), num(s.untracked_ns)),
                ("simrunner_ns".into(), num(s.simrunner_ns)),
                ("kinds".into(), kinds(&s.tally)),
            ]),
        ),
        ("cells".into(), Json::Arr(cells)),
    ])
}
