//! Span-based wall-time profiler for campaign cells.
//!
//! A campaign's wall time says how long a cell took, but not where that
//! time lives. This module attributes wall-time to named code regions
//! ("spans") with flamegraph-compatible semantics: every nanosecond of an
//! enabled window is credited to exactly one *stack path*
//! (`"cell;sim/arrive;cc/on_ack"`), the join of the spans active when it
//! elapsed. Time inside a span but outside its children is that path's
//! *self time*, so the per-path self times tile the window — summing them
//! reproduces total measured wall time, and the fraction under named spans
//! is a direct coverage metric.
//!
//! Design constraints, in priority order:
//!
//! 1. **Free when off.** Instrumentation sites run in the simulator's
//!    per-event dispatch loop; a disabled span reads one `const`-initialised
//!    thread-local `Cell<bool>` (no lazy-init check, no `RefCell` borrow),
//!    no clock read, no allocation, and its guard's drop is a field test.
//! 2. **Observability only.** The profiler reads the wall clock and a
//!    thread-local; it never touches simulation state, RNG streams, or the
//!    metrics registry, so enabling it cannot perturb results.
//! 3. **Thread-local.** Each campaign worker profiles its own cell;
//!    snapshots merge additively (same paths, summed self-time), exactly
//!    like [`crate::CounterSnapshot`].
//!
//! Usage: a campaign worker calls [`set_enabled`]`(true)`, runs the cell
//! (whose code creates [`span`] guards), then harvests with [`take`].

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

/// Path that absorbs time elapsed while no span was active. Kept distinct
/// so coverage (`named_ns / total_ns`) is an honest measure of how much of
/// the window the instrumentation explains.
pub const UNTRACKED: &str = "(untracked)";

struct ProfState {
    /// Byte length of `path` before each active span was pushed.
    depths: Vec<usize>,
    /// Current stack path, span names joined by `;`.
    path: String,
    /// Wall-clock stamp of the last attribution boundary.
    stamp: Instant,
    /// Accumulated (self_ns, calls) per stack path.
    acc: HashMap<String, (u64, u64)>,
}

impl ProfState {
    fn new() -> Self {
        ProfState {
            depths: Vec::new(),
            path: String::new(),
            stamp: Instant::now(),
            acc: HashMap::new(),
        }
    }

    /// Credit time elapsed since the last boundary to the current path.
    fn attribute(&mut self, now: Instant) {
        let ns = now.duration_since(self.stamp).as_nanos() as u64;
        self.stamp = now;
        let key = if self.path.is_empty() {
            UNTRACKED
        } else {
            self.path.as_str()
        };
        match self.acc.get_mut(key) {
            Some(e) => e.0 += ns,
            None => {
                self.acc.insert(key.to_string(), (ns, 0));
            }
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.attribute(Instant::now());
        self.depths.push(self.path.len());
        if !self.path.is_empty() {
            self.path.push(';');
        }
        self.path.push_str(name);
        match self.acc.get_mut(self.path.as_str()) {
            Some(e) => e.1 += 1,
            None => {
                self.acc.insert(self.path.clone(), (0, 1));
            }
        }
    }

    fn exit(&mut self) {
        self.attribute(Instant::now());
        if let Some(depth) = self.depths.pop() {
            self.path.truncate(depth);
        }
    }
}

thread_local! {
    static PROF: RefCell<ProfState> = RefCell::new(ProfState::new());
    /// Whether profiling is on. Kept outside `PROF` so that a disabled
    /// [`span`] neither initialises nor borrows it.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Turn profiling on or off for this thread. Enabling resets the clock
/// stamp so previously elapsed time is not attributed; it does not clear
/// accumulated spans (use [`take`] for that).
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
    if on {
        PROF.with(|p| p.borrow_mut().stamp = Instant::now());
    }
}

/// Whether profiling is currently enabled on this thread.
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Open a profiling span named `name`. The returned guard closes the span
/// when dropped; nesting produces `;`-joined stack paths. When profiling
/// is disabled this is one thread-local `Cell<bool>` load and the guard is
/// inert.
///
/// `name` should be a short, stable, slash-namespaced identifier
/// (`"sim/arrive"`, `"cc/on_ack"`) — it becomes part of the span
/// catalogue rendered by `suss-trace profile`.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let active = ENABLED.with(Cell::get);
    if active {
        PROF.with(|p| p.borrow_mut().enter(name));
    }
    SpanGuard { active }
}

/// Guard returned by [`span`]; closes the span on drop.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            PROF.with(|p| {
                let mut p = p.borrow_mut();
                // If profiling was force-disabled mid-span, the stack was
                // already reset by `take`; unwind quietly.
                if is_enabled() || !p.depths.is_empty() {
                    p.exit();
                }
            });
        }
    }
}

/// Harvest and reset this thread's profile: attribute the time since the
/// last boundary, clear the accumulator and span stack, and return the
/// snapshot. Call with all spans closed (the campaign worker harvests
/// after the cell closure returns).
pub fn take() -> ProfSnapshot {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        if is_enabled() {
            p.attribute(Instant::now());
        }
        p.depths.clear();
        p.path.clear();
        let mut spans: Vec<ProfSpan> = p
            .acc
            .drain()
            .map(|(path, (self_ns, calls))| ProfSpan {
                path,
                self_ns,
                calls,
            })
            .collect();
        spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        ProfSnapshot { spans }
    })
}

/// Self-time and entry count of one stack path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfSpan {
    /// `;`-joined span names from the outermost open span to this one —
    /// directly usable as a collapsed-stack line for flamegraph tools.
    pub path: String,
    /// Wall time attributed to this path and no deeper span, in ns.
    pub self_ns: u64,
    /// Times this exact path was entered (0 for [`UNTRACKED`]).
    pub calls: u64,
}

/// One thread's (or one cell's, or a whole run's) span profile.
///
/// Snapshots merge additively by path, so per-cell profiles aggregate into
/// a campaign total the same way counter snapshots do — identical at any
/// worker count modulo the wall-clock measurements themselves.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProfSnapshot {
    /// Spans, largest self-time first.
    pub spans: Vec<ProfSpan>,
}

impl ProfSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total measured wall time: the sum of all self times, including
    /// [`UNTRACKED`]. By construction this tiles the enabled window.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ns).sum()
    }

    /// Wall time attributed to named spans (everything but [`UNTRACKED`]).
    pub fn named_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.path != UNTRACKED)
            .map(|s| s.self_ns)
            .sum()
    }

    /// Fraction of measured wall time attributed to named spans, in
    /// percent (100.0 for an empty profile, which explains all of its
    /// zero nanoseconds).
    pub fn coverage_percent(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 100.0;
        }
        100.0 * self.named_ns() as f64 / total as f64
    }

    /// Fold another snapshot into this one, summing self-times and calls
    /// per path. Commutative and associative.
    pub fn merge(&mut self, other: &ProfSnapshot) {
        for s in &other.spans {
            match self.spans.iter_mut().find(|m| m.path == s.path) {
                Some(m) => {
                    m.self_ns += s.self_ns;
                    m.calls += s.calls;
                }
                None => self.spans.push(s.clone()),
            }
        }
        self.spans
            .sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < ms as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _ = take();
        {
            let _g = span("never");
        }
        let snap = take();
        assert!(snap.is_empty());
        assert_eq!(snap.coverage_percent(), 100.0);
    }

    #[test]
    fn self_times_tile_the_window_and_paths_nest() {
        let _ = take();
        set_enabled(true);
        {
            let _outer = span("outer");
            spin(2);
            {
                let _inner = span("inner");
                spin(2);
            }
            spin(1);
        }
        set_enabled(false);
        let snap = take();
        let find = |p: &str| snap.spans.iter().find(|s| s.path == p);
        let outer = find("outer").expect("outer span");
        let inner = find("outer;inner").expect("nested path");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.self_ns >= 2_000_000, "outer self {}", outer.self_ns);
        assert!(inner.self_ns >= 1_000_000, "inner self {}", inner.self_ns);
        // Tiling: named + untracked == total, and coverage is high because
        // almost all elapsed time was inside spans.
        assert_eq!(
            snap.total_ns(),
            snap.named_ns() + find(UNTRACKED).map(|s| s.self_ns).unwrap_or(0)
        );
        assert!(
            snap.coverage_percent() > 90.0,
            "{}",
            snap.coverage_percent()
        );
    }

    #[test]
    fn take_resets() {
        let _ = take();
        set_enabled(true);
        {
            let _g = span("a");
        }
        set_enabled(false);
        assert!(!take().is_empty());
        assert!(take().is_empty());
    }

    #[test]
    fn merge_sums_by_path() {
        let a = ProfSnapshot {
            spans: vec![
                ProfSpan {
                    path: "x".into(),
                    self_ns: 10,
                    calls: 1,
                },
                ProfSpan {
                    path: "x;y".into(),
                    self_ns: 5,
                    calls: 2,
                },
            ],
        };
        let b = ProfSnapshot {
            spans: vec![
                ProfSpan {
                    path: "x".into(),
                    self_ns: 7,
                    calls: 3,
                },
                ProfSpan {
                    path: "z".into(),
                    self_ns: 100,
                    calls: 1,
                },
            ],
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.spans[0].path, "z");
        let x = ab.spans.iter().find(|s| s.path == "x").unwrap();
        assert_eq!((x.self_ns, x.calls), (17, 4));
        assert_eq!(ab.total_ns(), 122);
    }

    /// Shard-manifest merging folds per-shard snapshots in shard-index
    /// order; for the merged profile to be byte-identical to a
    /// single-process run, merge must be associative and leave the spans
    /// in the canonical (self_ns desc, path) order regardless of fold
    /// shape.
    #[test]
    fn merge_is_associative_with_canonical_span_order() {
        let snap = |path: &str, self_ns: u64, calls: u64| ProfSnapshot {
            spans: vec![ProfSpan {
                path: path.into(),
                self_ns,
                calls,
            }],
        };
        let (a, b, c) = (snap("x", 10, 1), snap("y", 10, 2), snap("x;y", 30, 3));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        assert_eq!(ab_c, a_bc, "merge must be associative");
        let order: Vec<&str> = ab_c.spans.iter().map(|s| s.path.as_str()).collect();
        // Ties on self_ns break by path, so the order is fully canonical.
        assert_eq!(order, ["x;y", "x", "y"]);
    }

    #[test]
    fn snapshot_serde_roundtrips() {
        let snap = ProfSnapshot {
            spans: vec![ProfSpan {
                path: "sim/arrive;cc/on_ack".into(),
                self_ns: 123,
                calls: 45,
            }],
        };
        let s = serde::to_string(&snap);
        let back: ProfSnapshot = serde::from_str(&s).expect("roundtrip");
        assert_eq!(snap, back);
    }
}
