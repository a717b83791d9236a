//! Helpers for goldens recorded on the original binary-heap engine: a
//! `(time, id)` log is pinned by its length and FNV-1a digest, and a
//! counter snapshot by its totals outside the engine-internal
//! `net.sched_*`/`net.pool_*` families, which that engine did not count
//! the same way.

use netsim::SimTime;
use simtrace::CounterSnapshot;

/// Length and FNV-1a 64 digest of a `(time, id)` log, hashed over the
/// little-endian bytes of each time in nanoseconds and each id.
pub fn digest(log: &[(SimTime, u64)]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(t, id) in log {
        for b in t
            .as_nanos()
            .to_le_bytes()
            .into_iter()
            .chain(id.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (log.len(), h)
}

/// Counter totals outside `net.sched_*`/`net.pool_*`, in name order.
pub fn non_engine_counters(snap: &CounterSnapshot) -> Vec<(&str, u64)> {
    snap.metrics
        .iter()
        .filter(|m| !m.name.starts_with("net.sched_") && !m.name.starts_with("net.pool_"))
        .map(|m| (&*m.name, m.value))
        .collect()
}
