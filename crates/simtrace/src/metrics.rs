//! Counter/gauge registry with unsynchronized `Rc<Cell<u64>>` handles.
//!
//! A [`Registry`] lives inside one simulation (one thread); handles hand
//! out interior-mutable cells so the hot path is a load+store, no atomics.
//! Cross-thread aggregation happens on immutable [`CounterSnapshot`]s,
//! which are plain data and merge commutatively (counters add, gauges
//! max) — the order cells complete in a parallel campaign cannot change
//! the merged totals.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use serde::{Deserialize, Reader, Serialize};

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell; increments through any clone are
/// visible to the owning [`Registry`]'s snapshots.
#[derive(Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.0.get())
    }
}

/// A high-water-mark gauge handle. [`Gauge::observe`] keeps the maximum
/// value seen; snapshots of parallel shards merge by max as well.
#[derive(Clone)]
pub struct Gauge(Rc<Cell<u64>>);

impl Gauge {
    /// Record an observation; the gauge retains the maximum.
    #[inline]
    pub fn observe(&self, v: u64) {
        if v > self.0.get() {
            self.0.set(v);
        }
    }

    /// Current high-water mark.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.0.get())
    }
}

struct Slot {
    name: &'static str,
    gauge: bool,
    value: Rc<Cell<u64>>,
}

/// A per-simulation metric registry.
///
/// Registering the same name twice returns a handle to the same cell, so
/// independent layers (transport, congestion controller) can share a
/// metric without coordinating. Cloning the registry shares the slot
/// table — a `Sim` clones it into each endpoint it wires up.
#[derive(Clone, Default)]
pub struct Registry {
    slots: Rc<RefCell<Vec<Slot>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, name: &'static str, gauge: bool) -> Rc<Cell<u64>> {
        let mut slots = self.slots.borrow_mut();
        if let Some(s) = slots.iter().find(|s| s.name == name) {
            debug_assert_eq!(
                s.gauge, gauge,
                "metric {name:?} registered as both counter and gauge"
            );
            return Rc::clone(&s.value);
        }
        let value = Rc::new(Cell::new(0));
        slots.push(Slot {
            name,
            gauge,
            value: Rc::clone(&value),
        });
        value
    }

    /// Register (or look up) a counter by name (see [`crate::names`]).
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.slot(name, false))
    }

    /// Register (or look up) a high-water-mark gauge by name.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.slot(name, true))
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> CounterSnapshot {
        let slots = self.slots.borrow();
        let mut metrics: Vec<MetricValue> = slots
            .iter()
            .map(|s| MetricValue {
                name: Cow::Borrowed(s.name),
                gauge: s.gauge,
                value: s.value.get(),
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        CounterSnapshot { metrics }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.snapshot().metrics.len())
            .finish()
    }
}

/// One metric in a [`CounterSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricValue {
    /// Metric name (see [`crate::names`]): borrowed for catalogue names,
    /// whether registered or decoded, so neither allocates it.
    pub name: Cow<'static, str>,
    /// True for high-water-mark gauges (merged by max, not sum).
    pub gauge: bool,
    /// Value at snapshot time.
    pub value: u64,
}

/// Decodes as the derive would (first occurrence of a key wins, unknown
/// keys are skipped, every field is required), interning the name.
impl Deserialize for MetricValue {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        MetricValue::read_interned(r, &mut 0)
    }
}

impl MetricValue {
    /// Decode one metric, interning its name with the catalogue cursor
    /// `next` (see [`crate::names::intern`]).
    fn read_interned(r: &mut Reader<'_>, next: &mut usize) -> Option<Self> {
        let (mut name, mut gauge, mut value) = (None, None, None);
        r.begin_obj()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "name" if name.is_none() => name = Some(crate::names::intern(&r.str()?, next)),
                "gauge" if gauge.is_none() => gauge = Some(r.bool()?),
                "value" if value.is_none() => value = Some(u64::read_json(r)?),
                _ => {
                    r.skip()?;
                }
            }
        }
        Some(MetricValue {
            name: name?,
            gauge: gauge?,
            value: value?,
        })
    }
}

/// An immutable, order-independent snapshot of a [`Registry`].
///
/// Snapshots are plain data (`Send`), serialize deterministically, and
/// merge commutatively — the basis for the parallel-equals-serial
/// counter-totals guarantee.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct CounterSnapshot {
    /// Metrics sorted by name.
    pub metrics: Vec<MetricValue>,
}

/// Decodes as the derive would, interning the sorted metric names with
/// one catalogue cursor.
impl Deserialize for CounterSnapshot {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let mut metrics = None;
        r.begin_obj()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "metrics" if metrics.is_none() => {
                    // Sized for the whole catalogue up front, then
                    // trimmed: no regrowth copies for a snapshot of
                    // catalogue names, and no spare capacity kept per
                    // cached result.
                    let (mut list, mut next) = (Vec::with_capacity(crate::names::ALL.len()), 0);
                    r.begin_arr()?;
                    while r.next_item()? {
                        list.push(MetricValue::read_interned(r, &mut next)?);
                    }
                    list.shrink_to_fit();
                    metrics = Some(list);
                }
                _ => {
                    r.skip()?;
                }
            }
        }
        Some(CounterSnapshot { metrics: metrics? })
    }
}

impl CounterSnapshot {
    /// Value of a metric by name, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// True when no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Merge another snapshot into this one: counters add, gauges keep
    /// the maximum. Union of names; result stays sorted.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for m in &other.metrics {
            match self.metrics.binary_search_by(|x| x.name.cmp(&m.name)) {
                Ok(i) => {
                    let mine = &mut self.metrics[i];
                    if m.gauge {
                        mine.value = mine.value.max(m.value);
                    } else {
                        mine.value = mine.value.wrapping_add(m.value);
                    }
                }
                Err(i) => self.metrics.insert(i, m.clone()),
            }
        }
    }

    /// Per-metric difference `self - other` over the union of names.
    /// Metrics absent on one side count as zero there.
    pub fn diff(&self, other: &CounterSnapshot) -> Vec<(String, i64)> {
        let mut names: Vec<&str> = self
            .metrics
            .iter()
            .chain(&other.metrics)
            .map(|m| &*m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                let a = self.get(n).unwrap_or(0) as i64;
                let b = other.get(n).unwrap_or(0) as i64;
                (n.to_string(), a - b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.count");
        let g = r.gauge("a.hwm");
        c.inc();
        c.add(4);
        g.observe(10);
        g.observe(3);
        let snap = r.snapshot();
        assert_eq!(snap.get("a.count"), Some(5));
        assert_eq!(snap.get("a.hwm"), Some(10));
    }

    #[test]
    fn same_name_shares_cell() {
        let r = Registry::new();
        r.counter("x").inc();
        r.counter("x").inc();
        assert_eq!(r.snapshot().get("x"), Some(2));
    }

    #[test]
    fn merge_is_commutative() {
        let mk = |c: u64, g: u64| CounterSnapshot {
            metrics: vec![
                MetricValue {
                    name: "c".into(),
                    gauge: false,
                    value: c,
                },
                MetricValue {
                    name: "g".into(),
                    gauge: true,
                    value: g,
                },
            ],
        };
        let (a, b) = (mk(3, 7), mk(4, 5));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("c"), Some(7));
        assert_eq!(ab.get("g"), Some(7));
    }

    #[test]
    fn merge_inserts_missing_sorted() {
        let mut a = CounterSnapshot {
            metrics: vec![MetricValue {
                name: "m".into(),
                gauge: false,
                value: 1,
            }],
        };
        let b = CounterSnapshot {
            metrics: vec![
                MetricValue {
                    name: "a".into(),
                    gauge: false,
                    value: 2,
                },
                MetricValue {
                    name: "z".into(),
                    gauge: false,
                    value: 3,
                },
            ],
        };
        a.merge(&b);
        let names: Vec<&str> = a.metrics.iter().map(|m| &*m.name).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn diff_covers_union() {
        let a = CounterSnapshot {
            metrics: vec![MetricValue {
                name: "only_a".into(),
                gauge: false,
                value: 2,
            }],
        };
        let b = CounterSnapshot {
            metrics: vec![MetricValue {
                name: "only_b".into(),
                gauge: false,
                value: 3,
            }],
        };
        assert_eq!(
            a.diff(&b),
            vec![("only_a".to_string(), 2), ("only_b".to_string(), -3)]
        );
    }

    #[test]
    fn catalogue_is_sorted_and_decoded_names_borrow_from_it() {
        let all = crate::names::ALL;
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "names::ALL must be sorted like a snapshot's metrics"
        );
        // In order, backwards, and from a cursor past the end.
        let mut next = 0;
        for &name in all.iter().chain(all.iter().rev()) {
            assert!(matches!(crate::names::intern(name, &mut next), Cow::Borrowed(n) if n == name));
            assert!(matches!(crate::names::intern(name, &mut 99), Cow::Borrowed(n) if n == name));
        }
        assert!(
            matches!(crate::names::intern("no.such", &mut next), Cow::Owned(n) if n == "no.such")
        );
        let text = r#"{"metrics":[{"name":"net.pool_hits","gauge":false,"value":3},
            {"name":"custom.metric","gauge":true,"value":4}]}"#;
        let snap = serde::from_str::<CounterSnapshot>(text).unwrap();
        assert!(matches!(
            &snap.metrics[0].name,
            Cow::Borrowed("net.pool_hits")
        ));
        assert!(matches!(&snap.metrics[1].name, Cow::Owned(n) if n == "custom.metric"));
        assert_eq!(snap.get("custom.metric"), Some(4));
    }

    #[test]
    fn metric_values_decode_as_the_derive_would() {
        #[derive(Debug, PartialEq, Deserialize)]
        struct Derived {
            name: String,
            gauge: bool,
            value: u64,
        }
        #[derive(Debug, PartialEq, Deserialize)]
        struct DerivedSnapshot {
            metrics: Vec<Derived>,
        }
        for text in [
            r#"{"name":"tcp.rtos","gauge":false,"value":2}"#,
            r#"{"value":2,"gauge":true,"name":"x\u0041"}"#,
            r#"{"name":"a","name":"b","gauge":false,"x":[1,{}],"value":1,"value":"no"}"#,
            r#"{"name":"a","gauge":false}"#,
            r#"{"name":"a","gauge":0,"value":1}"#,
            r#"{"name":"a","gauge":false,"value":1.5}"#,
            r#"{"name":"a","gauge":false,"value":1,"x":[1,]}"#,
            r#"{"name":1,"gauge":false,"value":1}"#,
            r#"["a",false,1]"#,
        ] {
            let ours = serde::from_str::<MetricValue>(text)
                .map(|m| (m.name.into_owned(), m.gauge, m.value));
            let derived = serde::from_str::<Derived>(text).map(|d| (d.name, d.gauge, d.value));
            assert_eq!(ours, derived, "{text}");
            for snapshot in [
                format!(r#"{{"metrics":[{text},{text}]}}"#),
                format!(r#"{{"x":1,"metrics":[{text}],"metrics":[]}}"#),
                format!(r#"{{"metrics":{text}}}"#),
            ] {
                let ours = serde::from_str::<CounterSnapshot>(&snapshot).map(|s| {
                    let m = s.metrics.into_iter();
                    m.map(|m| (m.name.into_owned(), m.gauge, m.value))
                        .collect::<Vec<_>>()
                });
                let derived = serde::from_str::<DerivedSnapshot>(&snapshot).map(|s| {
                    let m = s.metrics.into_iter();
                    m.map(|d| (d.name, d.gauge, d.value)).collect::<Vec<_>>()
                });
                assert_eq!(ours, derived, "{snapshot}");
            }
        }
        assert_eq!(
            serde::from_str::<CounterSnapshot>(r#"{"other":[]}"#),
            None,
            "metrics is required"
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let r = Registry::new();
        r.counter("b").add(9);
        r.gauge("a").observe(4);
        let snap = r.snapshot();
        let s = serde::to_string(&snap);
        assert_eq!(serde::from_str::<CounterSnapshot>(&s), Some(snap));
    }
}
