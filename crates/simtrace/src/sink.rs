//! Event sinks: where [`TraceRecord`]s go.
//!
//! Producers take `&mut dyn EventSink`, so the export format is chosen at
//! the edge (JSONL for machine consumption, a `Vec` for tests; `suss-trace
//! dump --csv` renders a flow's samples from the JSONL). Sinks swallow I/O errors during `record` and surface the
//! first one from [`EventSink::flush`], keeping producer code infallible.

use std::io::{self, Write};

use crate::metrics::CounterSnapshot;
use crate::record::{kind, TraceRecord};

/// A destination for trace records.
pub trait EventSink {
    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flush buffered output; returns the first I/O error seen, if any.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one compact JSON object per line (JSONL).
pub struct JsonlSink<W: Write> {
    w: W,
    err: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Pass a `BufWriter` for file output.
    pub fn new(w: W) -> Self {
        JsonlSink { w, err: None }
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.err.is_some() {
            return;
        }
        let line = serde::to_string(rec);
        if let Err(e) = writeln!(self.w, "{line}") {
            self.err = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

/// Collects records in memory — for tests and in-process queries.
#[derive(Default)]
pub struct VecSink {
    /// Every record received, in arrival order.
    pub records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

/// Emit a [`CounterSnapshot`] as `counter` / `gauge` records stamped at
/// `t_ns`, optionally tagged with a run label. This is how counter totals
/// travel inside a JSONL trace so `suss-trace counters`/`diff` can read
/// them back.
pub fn export_counters(
    snap: &CounterSnapshot,
    t_ns: u64,
    run: Option<&str>,
    sink: &mut dyn EventSink,
) {
    for m in &snap.metrics {
        let k = if m.gauge { kind::GAUGE } else { kind::COUNTER };
        let mut rec = TraceRecord::metric(t_ns, k, &m.name, m.value);
        rec.run = run.map(str::to_string);
        sink.record(&rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceRecord::event(1, 0, kind::FLOW_START));
        sink.record(&TraceRecord::event(2, 0, kind::FLOW_COMPLETE));
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn export_counters_tags_gauges() {
        let r = Registry::new();
        r.counter("c").add(2);
        r.gauge("g").observe(5);
        let mut sink = VecSink::new();
        export_counters(&r.snapshot(), 99, Some("arm"), &mut sink);
        assert_eq!(sink.records.len(), 2);
        let g = sink
            .records
            .iter()
            .find(|r| r.name.as_deref() == Some("g"))
            .unwrap();
        assert_eq!(g.kind, kind::GAUGE);
        assert_eq!(g.run.as_deref(), Some("arm"));
    }
}
