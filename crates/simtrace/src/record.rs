//! The common timestamped trace record.
//!
//! Every producer (per-ACK connection traces, CC decisions, counter
//! dumps) flattens into one record shape so a single JSONL file can hold
//! a whole run and one query layer can answer questions about it.
//! Serialization is hand-written rather than derived so `None` fields are
//! *omitted* (compact JSONL) and unknown/missing fields deserialize
//! tolerantly — old readers accept new traces and vice versa.

use serde::{Deserialize, Reader, Serialize};

/// Record kind strings. Producers and queries share these constants;
/// the field is a plain string in the JSON so readers stay forward
/// compatible with kinds they don't know.
pub mod kind {
    /// Per-ACK connection state sample (`cwnd`/`inflight`/`delivered`/RTT).
    pub const SAMPLE: &str = "sample";
    /// First transmission of a flow.
    pub const FLOW_START: &str = "flow_start";
    /// Slow-start exit; `cwnd` carries the exit window in bytes.
    pub const SLOW_START_EXIT: &str = "slow_start_exit";
    /// Fast retransmit entered.
    pub const FAST_RETRANSMIT: &str = "fast_retransmit";
    /// Retransmission timeout fired.
    pub const RTO: &str = "rto";
    /// SUSS pacing round started; `value` carries the growth factor.
    pub const SUSS_PACING: &str = "suss_pacing";
    /// Flow finished delivering its payload.
    pub const FLOW_COMPLETE: &str = "flow_complete";
    /// Counter total at export time; `name`/`value` carry the metric.
    pub const COUNTER: &str = "counter";
    /// Gauge high-water mark at export time; `name`/`value` carry it.
    pub const GAUGE: &str = "gauge";
    /// CC decision: congestion window changed. `cwnd` carries the new
    /// window in bytes, `reason` the decision code.
    pub const CC_CWND: &str = "cc_cwnd";
    /// CC decision: slow-start threshold changed. `value` carries the new
    /// threshold in bytes, `reason` the decision code.
    pub const CC_SSTHRESH: &str = "cc_ssthresh";
    /// CC decision: pacing rate changed. `value` carries the new rate in
    /// bits/s (0 = pacing stopped), `reason` the decision code.
    pub const CC_PACING: &str = "cc_pacing";
    /// SUSS per-round estimate. `value` carries the growth estimate `k`,
    /// `reason` the round context (e.g. `round=3,k=4`).
    pub const SUSS_ROUND: &str = "suss_round";
    /// HyStart slow-start exit. `reason` carries `<phase>:<trigger>`, the
    /// trigger naming the detector that fired (`exit:ack_train` or
    /// `exit:delay`, from CUBIC and CUBIC+SUSS alike, or `exit:cap`, SUSS's
    /// growth cap).
    pub const HYSTART: &str = "hystart";
}

/// One timestamped telemetry record.
///
/// `t_ns` and `kind` are always present; everything else is optional and
/// omitted from the JSON when absent. Which fields are meaningful depends
/// on [`kind`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRecord {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Record kind (see [`kind`]).
    pub kind: String,
    /// Flow id, for per-flow records.
    pub flow: Option<u64>,
    /// Run label when one file holds several runs (e.g. `cubic` vs `bbr`).
    pub run: Option<String>,
    /// Congestion window in bytes.
    pub cwnd: Option<u64>,
    /// Bytes in flight.
    pub inflight: Option<u64>,
    /// Cumulative bytes delivered.
    pub delivered: Option<u64>,
    /// Last RTT sample in nanoseconds.
    pub rtt_ns: Option<u64>,
    /// Smoothed RTT in nanoseconds.
    pub srtt_ns: Option<u64>,
    /// Metric name, for counter/gauge records.
    pub name: Option<String>,
    /// Generic numeric payload (growth factor, metric value, …).
    pub value: Option<f64>,
    /// Decision reason code, for CC decision records (`cc_*`, `hystart`,
    /// `suss_round`). Free-form short text; may contain commas.
    pub reason: Option<String>,
}

impl TraceRecord {
    /// A record with just timestamp and kind; set optional fields on the
    /// returned value.
    pub fn new(t_ns: u64, kind: &str) -> Self {
        TraceRecord {
            t_ns,
            kind: kind.to_string(),
            ..TraceRecord::default()
        }
    }

    /// A per-flow event record.
    pub fn event(t_ns: u64, flow: u64, kind: &str) -> Self {
        TraceRecord {
            flow: Some(flow),
            ..TraceRecord::new(t_ns, kind)
        }
    }

    /// A per-ACK connection sample.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        t_ns: u64,
        flow: u64,
        cwnd: u64,
        inflight: u64,
        delivered: u64,
        rtt_ns: u64,
        srtt_ns: u64,
    ) -> Self {
        TraceRecord {
            cwnd: Some(cwnd),
            inflight: Some(inflight),
            delivered: Some(delivered),
            rtt_ns: Some(rtt_ns),
            srtt_ns: Some(srtt_ns),
            ..TraceRecord::event(t_ns, flow, kind::SAMPLE)
        }
    }

    /// A per-flow CC decision record (`kind` is one of the `cc_*`,
    /// [`kind::HYSTART`], or [`kind::SUSS_ROUND`] kinds); `reason`
    /// carries the decision code.
    pub fn decision(t_ns: u64, flow: u64, kind: &str, reason: &str) -> Self {
        TraceRecord {
            reason: Some(reason.to_string()),
            ..TraceRecord::event(t_ns, flow, kind)
        }
    }

    /// A counter or gauge total (`kind` is [`kind::COUNTER`] or
    /// [`kind::GAUGE`]).
    pub fn metric(t_ns: u64, kind: &str, name: &str, value: u64) -> Self {
        TraceRecord {
            name: Some(name.to_string()),
            value: Some(value as f64),
            ..TraceRecord::new(t_ns, kind)
        }
    }

    /// Timestamp in seconds.
    pub fn t_secs(&self) -> f64 {
        self.t_ns as f64 / 1e9
    }

    /// True for per-ACK samples.
    pub fn is_sample(&self) -> bool {
        self.kind == kind::SAMPLE
    }

    /// True for counter/gauge totals.
    pub fn is_metric(&self) -> bool {
        self.kind == kind::COUNTER || self.kind == kind::GAUGE
    }
}

/// JSON keys of [`TraceRecord::ints`], in rendering order.
const INT_KEYS: [&str; 6] = ["flow", "cwnd", "inflight", "delivered", "rtt_ns", "srtt_ns"];

/// JSON keys of the optional text fields `run`, `name` and `reason`.
const TEXT_KEYS: [&str; 3] = ["run", "name", "reason"];

impl TraceRecord {
    /// The optional integer fields, in [`INT_KEYS`] order.
    fn ints(&self) -> [Option<u64>; 6] {
        [
            self.flow,
            self.cwnd,
            self.inflight,
            self.delivered,
            self.rtt_ns,
            self.srtt_ns,
        ]
    }
}

/// Absent fields are omitted: `{"t_ns":…,"kind":…}`, then the integers
/// that are set, then `run`, `name`, `value` and `reason` if set.
impl Serialize for TraceRecord {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"t_ns\":");
        self.t_ns.write_json(out);
        out.push_str(",\"kind\":");
        self.kind.write_json(out);
        for (name, v) in INT_KEYS.into_iter().zip(self.ints()) {
            if let Some(x) = v {
                member(out, name, &x);
            }
        }
        if let Some(s) = &self.run {
            member(out, "run", s);
        }
        if let Some(s) = &self.name {
            member(out, "name", s);
        }
        if let Some(x) = &self.value {
            member(out, "value", x);
        }
        if let Some(s) = &self.reason {
            member(out, "reason", s);
        }
        out.push('}');
    }
}

/// Append `,"name":value`.
fn member(out: &mut String, name: &str, value: &dyn Serialize) {
    out.push(',');
    name.write_json(out);
    out.push(':');
    value.write_json(out);
}

/// Decoding is lenient: only `t_ns` and `kind` are required, an optional
/// field of the wrong type reads as absent, unknown fields are skipped,
/// and the first occurrence of a key wins.
impl Deserialize for TraceRecord {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        // Each slot: outer `Option` = key seen, inner = well-typed value.
        let mut t_ns = None;
        let mut kind = None;
        let mut ints: [Option<Option<u64>>; 6] = [None; 6];
        let mut texts: [Option<Option<String>>; 3] = [None, None, None];
        let mut value = None;
        r.begin_obj()?;
        while let Some(key) = r.next_key()? {
            let key = &*key;
            let int_slot = INT_KEYS.iter().position(|n| *n == key);
            let text_slot = TEXT_KEYS.iter().position(|n| *n == key);
            match (key, int_slot, text_slot) {
                ("t_ns", ..) if t_ns.is_none() => t_ns = Some(lenient::<u64>(r)?),
                ("kind", ..) if kind.is_none() => kind = Some(lenient::<String>(r)?),
                (_, Some(i), _) if ints[i].is_none() => ints[i] = Some(lenient(r)?),
                (_, _, Some(i)) if texts[i].is_none() => texts[i] = Some(lenient(r)?),
                // A number, not `null`: a null value is absent, not NaN.
                ("value", ..) if value.is_none() => {
                    value = Some(if r.peek()? == b'n' {
                        r.skip()?;
                        None
                    } else {
                        lenient::<f64>(r)?
                    })
                }
                _ => {
                    r.skip()?;
                }
            }
        }
        let [flow, cwnd, inflight, delivered, rtt_ns, srtt_ns] = ints.map(Option::flatten);
        let [run, name, reason] = texts.map(Option::flatten);
        Some(TraceRecord {
            t_ns: t_ns??,
            kind: kind??,
            flow,
            run,
            cwnd,
            inflight,
            delivered,
            rtt_ns,
            srtt_ns,
            name,
            value: value.flatten(),
            reason,
        })
    }
}

/// The next value as a `T`, or `Some(None)` (skipped, still validated)
/// if it has another shape.
fn lenient<T: Deserialize>(r: &mut Reader<'_>) -> Option<Option<T>> {
    Some(serde::from_str(r.skip()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_fields_are_omitted() {
        let r = TraceRecord::event(1_500_000, 3, kind::RTO);
        let s = serde::to_string(&r);
        assert_eq!(s, r#"{"t_ns":1500000,"kind":"rto","flow":3}"#);
    }

    #[test]
    fn sample_roundtrips() {
        let r = TraceRecord::sample(
            2_000_000_000,
            1,
            14480,
            7240,
            100_000,
            52_000_000,
            51_000_000,
        );
        let s = serde::to_string(&r);
        assert_eq!(serde::from_str::<TraceRecord>(&s), Some(r));
    }

    #[test]
    fn missing_optional_fields_tolerated() {
        let r: TraceRecord = serde::from_str(r#"{"t_ns":5,"kind":"sample"}"#).unwrap();
        assert_eq!(r.t_ns, 5);
        assert!(r.cwnd.is_none() && r.flow.is_none());
    }

    #[test]
    fn unknown_fields_tolerated() {
        let r: TraceRecord = serde::from_str(r#"{"t_ns":5,"kind":"x","mystery":true}"#).unwrap();
        assert_eq!(r.kind, "x");
        // Files written while packet capture existed carry `link`, `size`
        // and `packet_id`; they still parse, with those keys skipped.
        let old = r#"{"t_ns":7,"kind":"pkt_enqueue","flow":2,"link":1,"size":1500,"packet_id":42}"#;
        let r: TraceRecord = serde::from_str(old).unwrap();
        assert_eq!(
            (r.t_ns, r.kind.as_str(), r.flow),
            (7, "pkt_enqueue", Some(2))
        );
        assert_eq!(
            serde::to_string(&r),
            r#"{"t_ns":7,"kind":"pkt_enqueue","flow":2}"#
        );
    }

    #[test]
    fn mistyped_and_duplicate_fields_decode_leniently() {
        // The first occurrence of a key wins; an optional field of the
        // wrong type, or a null value, reads as absent.
        let text = r#"{"kind":"x","flow":"one","flow":2,"cwnd":1.5,"value":null,
            "value":3,"run":7,"name":"n","name":"m","t_ns":5,"t_ns":"late","link":[1,{"a":2}]}"#;
        let r: TraceRecord = serde::from_str(text).unwrap();
        assert_eq!((r.t_ns, r.kind.as_str()), (5, "x"));
        assert_eq!((r.flow, r.cwnd, r.value), (None, None, None));
        assert_eq!((r.run, r.name.as_deref()), (None, Some("n")));
        // Required fields must be present and well typed.
        assert!(serde::from_str::<TraceRecord>(r#"{"t_ns":"5","kind":"x"}"#).is_none());
        assert!(serde::from_str::<TraceRecord>(r#"{"t_ns":5,"kind":1}"#).is_none());
        // Skipped members are still validated.
        assert!(serde::from_str::<TraceRecord>(r#"{"t_ns":5,"kind":"x","flow":[1,]}"#).is_none());
    }

    #[test]
    fn decision_record_roundtrips_with_reason() {
        let mut r = TraceRecord::decision(42, 7, kind::CC_SSTHRESH, "loss, fast retransmit");
        r.value = Some(14480.0);
        let s = serde::to_string(&r);
        let back: TraceRecord = serde::from_str(&s).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.reason.as_deref(), Some("loss, fast retransmit"));
    }

    #[test]
    fn metric_record_carries_name_and_value() {
        let r = TraceRecord::metric(9, kind::COUNTER, "tcp.rtos", 4);
        let s = serde::to_string(&r);
        let back: TraceRecord = serde::from_str(&s).unwrap();
        assert_eq!(back.name.as_deref(), Some("tcp.rtos"));
        assert_eq!(back.value, Some(4.0));
        assert!(back.is_metric());
    }
}
