//! Read a JSONL trace back and answer questions about it.
//!
//! This module is the engine behind the `suss-trace` CLI, kept in the
//! library so tests (and other crates) can query traces in-process.

use std::path::Path;

use crate::metrics::{CounterSnapshot, MetricValue};
use crate::record::{kind, TraceRecord};

/// Parse JSONL text into records. Blank lines are skipped; any malformed
/// line fails the whole parse with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde::from_str::<TraceRecord>(line) {
            Some(rec) => out.push(rec),
            None => return Err(format!("line {}: not a valid trace record", i + 1)),
        }
    }
    Ok(out)
}

/// Read and parse a JSONL trace file.
pub fn read_jsonl(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Distinct run labels, in first-appearance order.
pub fn runs(records: &[TraceRecord]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in records {
        if let Some(run) = &r.run {
            if !out.iter().any(|x| x == run) {
                out.push(run.clone());
            }
        }
    }
    out
}

/// Distinct flow ids, sorted.
pub fn flows(records: &[TraceRecord]) -> Vec<u64> {
    let mut out: Vec<u64> = records.iter().filter_map(|r| r.flow).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Distinct (run label, flow id) pairs, sorted: one per traced flow,
/// also when several runs in one file reuse a flow id.
pub fn run_flows(records: &[TraceRecord]) -> Vec<(Option<&str>, u64)> {
    let mut out: Vec<_> = records
        .iter()
        .filter_map(|r| Some((r.run.as_deref(), r.flow?)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn run_matches(r: &TraceRecord, run: Option<&str>) -> bool {
    match run {
        None => true,
        Some(want) => r.run.as_deref() == Some(want),
    }
}

/// Per-ACK samples of one flow, in file order, optionally restricted to
/// one run label.
pub fn samples<'a>(
    records: &'a [TraceRecord],
    flow: u64,
    run: Option<&str>,
) -> Vec<&'a TraceRecord> {
    records
        .iter()
        .filter(|r| r.is_sample() && r.flow == Some(flow) && run_matches(r, run))
        .collect()
}

/// Render a flow's samples as a cwnd-timeseries CSV
/// (`t_ns,cwnd,inflight,delivered,rtt_ns,srtt_ns`). Integer nanosecond
/// timestamps keep the output byte-exact against the producing
/// `ConnTrace`.
pub fn samples_csv(records: &[TraceRecord], flow: u64, run: Option<&str>) -> String {
    let mut out = String::from("t_ns,cwnd,inflight,delivered,rtt_ns,srtt_ns\n");
    for s in samples(records, flow, run) {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            s.t_ns,
            s.cwnd.unwrap_or(0),
            s.inflight.unwrap_or(0),
            s.delivered.unwrap_or(0),
            s.rtt_ns.unwrap_or(0),
            s.srtt_ns.unwrap_or(0),
        ));
    }
    out
}

/// Event records (everything except samples and counter/gauge totals)
/// within `[from_ns, to_ns]`, optionally restricted to one flow.
pub fn events_in_window(
    records: &[TraceRecord],
    from_ns: u64,
    to_ns: u64,
    flow: Option<u64>,
) -> Vec<&TraceRecord> {
    records
        .iter()
        .filter(|r| !r.is_sample() && !r.is_metric())
        .filter(|r| r.t_ns >= from_ns && r.t_ns <= to_ns)
        .filter(|r| flow.is_none() || r.flow == flow)
        .collect()
}

/// Rebuild a [`CounterSnapshot`] from the `counter`/`gauge` records in a
/// trace, optionally restricted to one run label. Repeated metrics merge
/// (counters add, gauges max), so a multi-run file without a `run` filter
/// yields file-wide totals.
pub fn counters(records: &[TraceRecord], run: Option<&str>) -> CounterSnapshot {
    let mut snap = CounterSnapshot::default();
    for r in records {
        if !r.is_metric() || !run_matches(r, run) {
            continue;
        }
        let (Some(name), Some(value)) = (&r.name, r.value) else {
            continue;
        };
        snap.merge(&CounterSnapshot {
            metrics: vec![MetricValue {
                name: crate::names::intern(name, &mut 0),
                gauge: r.kind == kind::GAUGE,
                value: value as u64,
            }],
        });
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{EventSink, JsonlSink};

    fn demo_trace() -> Vec<TraceRecord> {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceRecord::event(0, 1, kind::FLOW_START));
        sink.record(&TraceRecord::sample(1_000, 1, 100, 50, 0, 10, 10));
        sink.record(&TraceRecord::sample(2_000, 1, 200, 60, 10, 11, 10));
        sink.record(&TraceRecord::sample(2_500, 2, 300, 70, 20, 12, 11));
        sink.record(&TraceRecord::event(3_000, 1, kind::RTO));
        sink.record(&TraceRecord::metric(4_000, kind::COUNTER, "tcp.rtos", 1));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        parse_jsonl(&text).unwrap()
    }

    #[test]
    fn parse_reports_bad_line_number() {
        let err = parse_jsonl("{\"t_ns\":1,\"kind\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn flows_and_samples_filter() {
        let recs = demo_trace();
        assert_eq!(flows(&recs), vec![1, 2]);
        assert_eq!(samples(&recs, 1, None).len(), 2);
        assert_eq!(samples(&recs, 2, None).len(), 1);
    }

    #[test]
    fn run_flows_counts_each_run_separately() {
        // Two runs that both trace flow 1, as fig09's SUSS-on and SUSS-off
        // arms do, plus a second flow in one of them.
        let mut recs = Vec::new();
        for (run, flow) in [
            ("suss-on", 1),
            ("suss-off", 1),
            ("suss-off", 2),
            ("suss-on", 1),
        ] {
            let mut r = TraceRecord::event(0, flow, kind::FLOW_START);
            r.run = Some(run.to_string());
            recs.push(r);
        }
        recs.push(TraceRecord::metric(1, kind::COUNTER, "tcp.rtos", 0));
        assert_eq!(flows(&recs), vec![1, 2]);
        assert_eq!(
            run_flows(&recs),
            vec![
                (Some("suss-off"), 1),
                (Some("suss-off"), 2),
                (Some("suss-on"), 1)
            ]
        );
        assert_eq!(run_flows(&demo_trace()), vec![(None, 1), (None, 2)]);
    }

    #[test]
    fn samples_csv_is_integer_exact() {
        let recs = demo_trace();
        let csv = samples_csv(&recs, 1, None);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("t_ns,cwnd,inflight,delivered,rtt_ns,srtt_ns")
        );
        assert_eq!(lines.next(), Some("1000,100,50,0,10,10"));
        assert_eq!(lines.next(), Some("2000,200,60,10,11,10"));
    }

    #[test]
    fn window_filters_events_only() {
        let recs = demo_trace();
        let evs = events_in_window(&recs, 0, 10_000, None);
        // flow_start + rto; samples and counters excluded.
        assert_eq!(evs.len(), 2);
        let evs = events_in_window(&recs, 2_900, 10_000, Some(1));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, kind::RTO);
    }

    #[test]
    fn counters_rebuild_snapshot() {
        let recs = demo_trace();
        let snap = counters(&recs, None);
        assert_eq!(snap.get("tcp.rtos"), Some(1));
    }

    #[test]
    fn run_label_scopes_queries() {
        let mut recs = demo_trace();
        for r in &mut recs {
            r.run = Some("a".into());
        }
        let mut b = TraceRecord::sample(9_000, 1, 999, 0, 0, 1, 1);
        b.run = Some("b".into());
        recs.push(b);
        assert_eq!(runs(&recs), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(samples(&recs, 1, Some("a")).len(), 2);
        assert_eq!(samples(&recs, 1, Some("b")).len(), 1);
    }
}
