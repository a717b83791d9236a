//! Flight recorder: a bounded ring of recent [`TraceRecord`]s per cell.
//!
//! When a campaign cell panics or hangs, the manifest records *that* it
//! failed but nothing about what the simulation was doing. The flight
//! recorder keeps the last few hundred trace records in a fixed-size ring;
//! the resilient runner holds a (weak) handle to each in-flight cell's
//! recorder and dumps it to `results/flightrec/<cell>.jsonl` when the cell panics
//! or is abandoned by the watchdog — including from the *outside* of a
//! hung worker thread, which can never drain its own ring.
//!
//! Producers record through the thread-local installed handle
//! ([`record_with`]), so instrumentation sites pay one thread-local read
//! when no recorder is installed and never construct the record. The ring
//! is `Arc<Mutex<..>>` only so the dispatching thread can read it; within
//! a cell all pushes come from the single worker thread, so the lock is
//! uncontended.
//!
//! Observability-only: recording touches no simulation state, schedules no
//! events, and draws no randomness, so an installed recorder cannot change
//! results.

use crate::record::TraceRecord;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Default ring capacity: enough to hold several RTTs of per-flow events
/// plus the periodic dispatch-progress records, small enough to dump and
/// eyeball.
pub const DEFAULT_CAPACITY: usize = 512;

struct Ring {
    buf: VecDeque<TraceRecord>,
    cap: usize,
}

/// A shared handle to one cell's record ring. Clones refer to the same
/// ring: the runner keeps one clone per in-flight cell, the worker thread
/// installs another.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<Ring>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` records (≥ 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.max(1)),
                cap: capacity.max(1),
            })),
        }
    }

    /// A handle that reads the ring while some [`FlightRecorder`] still
    /// holds it, without keeping it alive: the runner's view of a cell
    /// its worker is running, freed as soon as the worker lets go.
    pub fn downgrade(&self) -> WeakRecorder {
        WeakRecorder {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&self, rec: TraceRecord) {
        let mut r = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if r.buf.len() == r.cap {
            r.buf.pop_front();
        }
        r.buf.push_back(rec);
    }

    /// The ring's contents, oldest first. Tolerates a poisoned lock (the
    /// whole point is reading after the owning cell panicked).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let r = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        r.buf.iter().cloned().collect()
    }

    /// The ring serialized as JSONL, oldest record first — the same
    /// format `suss-trace` reads.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&serde::to_string(&rec));
            out.push('\n');
        }
        out
    }
}

/// A non-owning handle on a ring (see [`FlightRecorder::downgrade`]).
#[derive(Clone)]
pub struct WeakRecorder {
    inner: Weak<Mutex<Ring>>,
}

impl WeakRecorder {
    /// The ring, if a [`FlightRecorder`] still holds it.
    pub fn upgrade(&self) -> Option<FlightRecorder> {
        self.inner.upgrade().map(|inner| FlightRecorder { inner })
    }
}

thread_local! {
    static RECORDER: RefCell<Option<FlightRecorder>> = const { RefCell::new(None) };
}

/// Install a recorder for work running on this thread (or clear with
/// `None`). Campaign workers install the dispatching thread's handle
/// before running a cell and clear it after.
pub fn install(rec: Option<FlightRecorder>) {
    RECORDER.with(|r| *r.borrow_mut() = rec);
}

/// Record into this thread's recorder, if one is installed. The closure
/// only runs when a recorder is present, so instrumentation sites never
/// pay record construction in the common uninstalled case.
pub fn record_with(f: impl FnOnce() -> TraceRecord) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            rec.push(f());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::kind;

    #[test]
    fn ring_evicts_oldest() {
        let fr = FlightRecorder::new(3);
        for t in 0..5u64 {
            fr.push(TraceRecord::new(t, kind::RTO));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].t_ns, 2, "oldest two evicted");
        assert_eq!(snap[2].t_ns, 4);
    }

    #[test]
    fn record_with_is_inert_without_install() {
        install(None);
        let mut built = false;
        record_with(|| {
            built = true;
            TraceRecord::new(0, kind::RTO)
        });
        assert!(!built, "closure must not run with no recorder installed");
    }

    #[test]
    fn installed_recorder_sees_records_and_dump_parses() {
        let fr = FlightRecorder::new(8);
        install(Some(fr.clone()));
        record_with(|| TraceRecord::metric(7, kind::COUNTER, "net.events_processed", 4096));
        install(None);
        record_with(|| TraceRecord::new(9, kind::RTO)); // after clear: dropped
        let jsonl = fr.to_jsonl();
        let recs = crate::query::parse_jsonl(&jsonl).expect("dump must parse");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name.as_deref(), Some("net.events_processed"));
        assert_eq!(recs[0].value, Some(4096.0));
    }

    #[test]
    fn weak_handles_read_the_ring_only_while_it_is_held() {
        let fr = FlightRecorder::new(4);
        let weak = fr.downgrade();
        fr.push(TraceRecord::new(1, kind::RTO));
        assert_eq!(weak.upgrade().map(|r| r.snapshot().len()), Some(1));
        drop(fr);
        assert!(
            weak.upgrade().is_none(),
            "a weak handle must not keep the ring"
        );
    }

    #[test]
    fn clones_share_one_ring() {
        let a = FlightRecorder::new(4);
        let b = a.clone();
        a.push(TraceRecord::new(1, kind::RTO));
        b.push(TraceRecord::new(2, kind::RTO));
        assert_eq!(a.snapshot().len(), 2);
    }
}
