//! # simrunner — parallel experiment-campaign orchestration
//!
//! Every evaluation artifact in the paper is a grid — scenarios × flow
//! sizes × congestion controllers × seeds — and each grid cell is one
//! deterministic, independent simulation. This crate owns running such
//! grids fast:
//!
//! * [`Campaign`] expands an experiment into [`Cell`]s — one simulation
//!   each, identified by a label, a canonical parameter string, and a
//!   seed;
//! * [`Campaign::run`] hands the campaign to the [`Executor`] its
//!   [`RunnerOpts`] select ([`exec`]), which dispatches once on the
//!   [`ExecSpec`]: the deterministic token-tracked thread pool (the
//!   default — panic isolation, a wall-clock watchdog, flight-recorder
//!   crash dumps; each cell runs once, since a deterministic cell that
//!   failed would only fail again), or one shard of a campaign split
//!   across processes sharing one cache. A split campaign is finished by
//!   a plain pool run on that cache, which serves what the shards
//!   computed and recomputes what they left out. Both engines commit
//!   results by cell index, so the aggregated output is **byte-identical
//!   regardless of engine, worker count, scheduling order, or shard
//!   count** — the core invariant, enforced by regression tests;
//! * failures follow [`FailurePolicy`]: raise on first terminal failure
//!   (the default) or record — the campaign completes, failed cells
//!   come back as `None`, and their [`CellStatus`] and terminal error
//!   land in the manifest. Failures are never cached, so a re-run
//!   against the warm cache re-executes exactly the failed cells;
//! * results are memoized in a content-addressed cache ([`cache`]) keyed
//!   by a stable hash of (experiment id, version tag, cell params, seed).
//!   The key is shard-independent, which is what lets N shard processes
//!   share one cache dir and a final pool run serve the full result set
//!   from it afterwards;
//! * every run produces a serde-derived [`RunManifest`] (workers, wall
//!   time, cache hits/misses, per-cell timings, a results digest and a
//!   content fingerprint) that the figure binaries write next to their
//!   `results/*.txt` artifacts;
//! * progress (cells done / total, cells/sec, ETA) streams to stderr
//!   ([`progress`]).
//!
//! ## Example
//!
//! ```
//! use simrunner::{Campaign, RunnerOpts};
//!
//! let mut c = Campaign::new("demo", "v1");
//! for seed in 0..8 {
//!     c.cell(format!("cell-{seed}"), format!("x={seed}"), seed);
//! }
//! let out = c.run(&RunnerOpts::default().executor(), |cell| cell.seed as f64 * 2.0);
//! assert_eq!(out.results[3], Some(6.0));
//! assert_eq!(out.manifest.total_cells, 8);
//! assert_eq!(out.expect_all()[3], 6.0);
//! ```
//!
//! ## Distributed campaigns
//!
//! ```no_run
//! use simrunner::{Campaign, ExecSpec, RunnerOpts};
//!
//! let mut c = Campaign::new("demo", "v1");
//! for seed in 0..28 {
//!     c.cell(format!("cell-{seed}"), format!("x={seed}"), seed);
//! }
//! let opts = RunnerOpts::default()
//!     .with_cache("/tmp/suss-cache")
//!     .with_manifest_stem("/tmp/demo");
//! // Started as `demo <k>`, possibly on its own machine, with only the
//! // cache dir shared: shard `k` computes the cells with `index % 2 == k`,
//! // writes `/tmp/demo.shard<k>of2.manifest.json`, and exits the process.
//! if let Some(k) = std::env::args().nth(1).and_then(|a| a.parse().ok()) {
//!     let shard = opts.clone().with_executor(ExecSpec::Shard { index: k, total: 2 });
//!     c.run(&shard.executor(), |cell| cell.seed as f64);
//! }
//! // Started as plain `demo` after the shards: serves every cell they
//! // computed from the cache and recomputes any a dead shard left out —
//! // same results and fingerprint as one pool run from scratch.
//! let out = c.run(&opts.executor(), |cell| cell.seed as f64);
//! assert_eq!(out.expect_all().len(), 28);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod exec;
pub mod manifest;
pub mod pool;
pub mod progress;

pub use cache::{Cache, CellIdentity};
pub use campaign::{
    parse_shard, Campaign, CampaignReport, Cell, ExecSpec, FailurePolicy, RunnerOpts,
};
pub use exec::{Executor, SHARD_FAILED_EXIT};
pub use manifest::{shard_manifest_path, CellRecord, CellStatus, FctAnnotation, RunManifest};

/// FNV-1a 64-bit hash over a byte string — the stable content hash behind
/// cache keys. Stable across platforms, processes, and releases (never
/// replace with `DefaultHasher`, whose output is randomized per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a 64: feeding bytes in pieces hashes exactly as one
/// [`fnv1a64`] call over their concatenation, so digests stream their
/// canonical text instead of building it.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned values: changing the hash silently invalidates every
        // cache on disk, so make that an explicit decision.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn fnv_streams_like_one_call() {
        let mut h = Fnv1a::new();
        for piece in [&b"exp"[..], b"\0", b"", b"v1\n"] {
            h.write(piece);
        }
        assert_eq!(h.finish(), fnv1a64(b"exp\0v1\n"));
    }
}
