//! Helpers for goldens recorded on the original binary-heap engine: a
//! histogram is pinned by the FNV-1a digest of its bins, and a counter
//! snapshot by the digest of its totals outside the engine-internal
//! `net.sched_*`/`net.pool_*` families, which that engine did not count
//! the same way.

use simrunner::fnv1a64;
use simstats::LogHistogram;
use simtrace::CounterSnapshot;

/// FNV-1a 64 digest of a histogram's full bin layout.
pub fn hist_digest(h: &LogHistogram) -> u64 {
    fnv1a64(format!("{h:?}").as_bytes())
}

/// Number and FNV-1a 64 digest of the `name=value` lines of every counter
/// outside `net.sched_*`/`net.pool_*`.
pub fn counters_digest(c: &CounterSnapshot) -> (usize, u64) {
    let lines: Vec<String> = c
        .metrics
        .iter()
        .filter(|m| !m.name.starts_with("net.sched_") && !m.name.starts_with("net.pool_"))
        .map(|m| format!("{}={}\n", m.name, m.value))
        .collect();
    (lines.len(), fnv1a64(lines.concat().as_bytes()))
}
