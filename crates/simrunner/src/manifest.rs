//! Run manifests: the machine-readable record of one campaign execution.
//!
//! A manifest is written next to the figure's `results/*.txt` artifact
//! (e.g. `results/fig11.manifest.json`) and answers "how was this result
//! produced, how long did it take, and how much came from cache" without
//! re-running anything.
//!
//! Manifests are also the unit of distributed execution: a shard run
//! writes a manifest covering only the cells it owns (the rest are
//! [`CellStatus::Skipped`]), and [`RunManifest::merge_shards`] folds a
//! complete shard set back into one manifest indistinguishable — modulo
//! wall-clock noise, which the [`fingerprint`](RunManifest::fingerprint)
//! deliberately excludes — from a single-process run.

use serde::{Deserialize, Serialize};
use simtrace::{ProfSnapshot, ScopeAnnotation};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// How a cell's execution ended.
///
/// The cell lifecycle is: dispatched once → `Ok` on success, `Panicked`
/// when the cell panicked, `TimedOut` when the wall-clock watchdog
/// abandoned it. A cell is a pure function of its parameters and seed,
/// so a failed cell is never re-run within the campaign. Only successful
/// cells are stored to cache, so re-running a campaign against a warm
/// cache recomputes exactly the failed cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Completed (or served from cache).
    Ok,
    /// Panicked; no result.
    Panicked,
    /// Abandoned by the per-cell wall-clock watchdog; no result.
    TimedOut,
    /// Owned by a different shard of a sharded run; this execution never
    /// attempted it. Skipped cells are not failures — the owning shard's
    /// manifest carries their real status.
    Skipped,
}

impl CellStatus {
    /// Whether this status carries a result.
    pub fn succeeded(self) -> bool {
        self == CellStatus::Ok
    }
}

/// Which slice of a sharded campaign a manifest covers.
///
/// Shard `index` of `total` owns exactly the cells whose campaign index
/// `i` satisfies `i % total == index` (round-robin, so heavyweight
/// scenario blocks spread across shards). Cell indices, labels, seeds and
/// cache keys are unchanged by sharding — identity is shard-independent,
/// which is what lets shards share one `SUSS_CACHE_DIR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// This shard's index, in `0..total`.
    pub index: usize,
    /// Number of shards the campaign was split into.
    pub total: usize,
}

impl ShardInfo {
    /// Whether this shard owns campaign cell `i`.
    pub fn owns(&self, i: usize) -> bool {
        self.total <= 1 || i % self.total == self.index
    }
}

/// Canonical path of one shard's manifest for a campaign whose manifests
/// live under `stem` (e.g. `results/fig17` →
/// `results/fig17.shard0of2.manifest.json`).
pub fn shard_manifest_path(stem: &Path, index: usize, total: usize) -> PathBuf {
    let name = stem
        .file_name()
        .map(|s| s.to_string_lossy())
        .unwrap_or_default();
    stem.with_file_name(format!("{name}.shard{index}of{total}.manifest.json"))
}

/// Per-cell execution record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Position in campaign order.
    pub index: usize,
    /// Human-readable cell label.
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
    /// Content-address (cache key) as 16 hex digits.
    pub key: String,
    /// Whether the result came from cache.
    pub cached: bool,
    /// Wall time to compute the cell, in milliseconds (0 for hits).
    pub wall_ms: f64,
    /// Simulator events dispatched while computing the cell (0 for hits,
    /// and for cells that never report via `simtrace::runtime`).
    pub events: u64,
    /// How the cell's execution ended.
    pub status: CellStatus,
    /// The terminal failure message (panic payload or watchdog verdict);
    /// empty for successful cells.
    pub error: String,
    /// Path of the flight-recorder dump written when this cell panicked
    /// or timed out; empty when no dump exists.
    pub flightrec: String,
}

/// A named FCT-percentile summary attached to a manifest — one per
/// (scenario, cc, load, flow-size bucket) group in fleet campaigns, so
/// the percentile curves are machine-readable without reparsing the
/// rendered table. Percentiles are in seconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FctAnnotation {
    /// Group label, e.g. `fleet/4G/cubic+suss/load0.6/<=2MB`.
    pub label: String,
    /// Flows aggregated into this group.
    pub n: u64,
    /// Median flow-completion time, seconds.
    pub p50: f64,
    /// 90th-percentile FCT, seconds.
    pub p90: f64,
    /// 99th-percentile FCT, seconds.
    pub p99: f64,
    /// 99.9th-percentile FCT, seconds.
    pub p999: f64,
}

/// The record of one [`Campaign::run`](crate::Campaign::run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment id.
    pub experiment: String,
    /// Version tag in effect.
    pub version: String,
    /// Which executor produced this manifest (`pool`, `shard 0/2` or
    /// `merged(2 shards)`).
    pub executor: String,
    /// The shard slice this manifest covers; `None` for unsharded runs
    /// and for merged manifests.
    pub shard: Option<ShardInfo>,
    /// Worker threads used (summed across shards after a merge).
    pub workers: usize,
    /// Total cells in the campaign.
    pub total_cells: usize,
    /// Cells served from cache.
    pub cache_hits: usize,
    /// Cells recomputed.
    pub cache_misses: usize,
    /// Cells this execution never attempted because another shard owns
    /// them (0 for unsharded and merged manifests).
    pub cells_skipped: usize,
    /// Wall time of the whole run, seconds.
    pub wall_secs: f64,
    /// Throughput over the whole run (total cells / wall time).
    pub cells_per_sec: f64,
    /// Simulator events dispatched across all computed cells.
    pub events_total: u64,
    /// Simulator event throughput over the whole run (events / wall time).
    pub events_per_sec: f64,
    /// Summed per-cell compute time — how long workers were busy.
    pub worker_busy_secs: f64,
    /// Worker utilization in `[0, 1]`: busy time / (wall time × workers).
    pub utilization: f64,
    /// Median per-cell compute wall time over computed (non-cached,
    /// successful) cells, ms. The busy/utilization totals hide stragglers;
    /// the tail lives here.
    pub wall_ms_p50: f64,
    /// 99th-percentile per-cell compute wall time (nearest-rank), ms.
    pub wall_ms_p99: f64,
    /// Cells that ended without a result (panicked or timed out).
    pub cells_failed: usize,
    /// Cells abandoned by the wall-clock watchdog.
    pub cell_timeouts: u64,
    /// Corrupt cache entries quarantined while loading.
    pub cache_quarantined: u64,
    /// Cells of dead shards recomputed inline by the merge — orphans
    /// whose owning shard never cached them (0 for unsharded runs).
    pub cells_reassigned: u64,
    /// FNV-1a 64 digest over the campaign's results in cell order — the
    /// value-level identity of the run. Two runs that computed the same
    /// science have the same digest regardless of workers, executor,
    /// sharding, or cache temperature. Empty when some cells failed.
    pub results_digest: String,
    /// Digest over the deterministic content of this manifest (cells,
    /// statuses, results digest, FCT annotations) — excludes wall-clock
    /// fields, `cached` flags, executor identity and scope annotations,
    /// so a sharded merge, a single-process run and a warm rerun
    /// fingerprint identically. Sealed by
    /// [`write`](Self::write); stale after in-place mutation until then.
    pub fingerprint: String,
    /// Experiment-attached result summaries (empty unless the experiment
    /// pushes them, e.g. fleet FCT percentiles per flow-size bucket).
    pub annotations: Vec<FctAnnotation>,
    /// Queue/link time-series summaries reported by cells through
    /// `simtrace::runtime::add_scope_annotation`, sorted by label (empty
    /// unless scope sampling was enabled). Only computed cells report
    /// them, so a warm rerun has none: like wall time, they are
    /// observation and stay out of the fingerprint.
    pub scope_annotations: Vec<ScopeAnnotation>,
    /// Merged span profile across all computed cells (empty unless the
    /// run profiled; see [`RunnerOpts::profile`](crate::RunnerOpts)).
    pub prof: ProfSnapshot,
    /// Per-cell records, in campaign order.
    pub cells: Vec<CellRecord>,
}

impl RunManifest {
    /// Render as a JSON string (single line, trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut s = serde::to_string(self);
        s.push('\n');
        s
    }

    /// Write the manifest to `path`, creating parent directories. The
    /// [`fingerprint`](Self::fingerprint) is recomputed at write time so
    /// the file always carries a fingerprint consistent with its content
    /// (annotations are often attached after the run assembles the
    /// manifest).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut sealed = self.clone();
        sealed.fingerprint = sealed.compute_fingerprint();
        std::fs::write(path, sealed.to_json_string())
    }

    /// Read a manifest back from disk (the inverse of [`write`](Self::write)).
    pub fn read(path: &Path) -> io::Result<RunManifest> {
        let text = std::fs::read_to_string(path)?;
        let mut json = serde::Json::parse(text.trim()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not JSON", path.display()),
            )
        })?;
        // Manifests written before merge-time reassignment lack its
        // counter; default it to zero so old artifacts stay readable (the
        // derived deserializer requires every field and ignores unknown
        // ones, such as the retired shard-supervision and retry counters).
        if let serde::Json::Obj(fields) = &mut json {
            if !fields.iter().any(|(k, _)| k == "cells_reassigned") {
                fields.push(("cells_reassigned".to_string(), serde::Json::Num(0.0)));
            }
        }
        RunManifest::from_json(&json).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a run manifest", path.display()),
            )
        })
    }

    /// Digest over the deterministic content of the manifest: experiment
    /// identity, per-cell (index, label, seed, key, status), the results
    /// digest, and the FCT annotations. Wall-clock fields, `cached`
    /// flags, the executor label and the scope annotations are excluded,
    /// so the fingerprint is stable across cache temperature, worker
    /// count, executor choice and sharding.
    pub fn compute_fingerprint(&self) -> String {
        // The canonical text, hashed piecewise through one reused buffer:
        // the identity fields and results digest, one
        // `index\1label\1seed\1key\1status` line per cell, then the FCT
        // annotations as JSON. The scope-annotation slot hashes as a
        // constant empty list so that pinned fingerprints, all taken with
        // that slot empty, still hold.
        let mut hash = crate::Fnv1a::new();
        let mut buf = String::new();
        let _ = write!(
            buf,
            "{}\0{}\0{}\0{}\0",
            self.experiment, self.version, self.total_cells, self.results_digest
        );
        hash.write(buf.as_bytes());
        for c in &self.cells {
            buf.clear();
            let _ = writeln!(
                buf,
                "{}\u{1}{}\u{1}{}\u{1}{}\u{1}{:?}",
                c.index, c.label, c.seed, c.key, c.status
            );
            hash.write(buf.as_bytes());
        }
        buf.clear();
        self.annotations.write_json(&mut buf);
        buf.push_str("\0[]");
        hash.write(buf.as_bytes());
        format!("{:016x}", hash.finish())
    }

    /// Merge a complete set of shard manifests into one manifest covering
    /// the whole campaign.
    ///
    /// Requirements: every input must carry [`shard`](Self::shard) info,
    /// agree on experiment/version/`total_cells`, use the same shard
    /// `total`, and together cover shards `0..total` exactly once. Each
    /// cell must be owned (status ≠ `Skipped`) by exactly its round-robin
    /// shard. Merging is commutative and associative-by-construction:
    /// inputs are reordered by shard index and cells by campaign index,
    /// counters are summed, wall time is the max (shards run
    /// concurrently), percentiles are recomputed from the merged records,
    /// annotation lists are re-sorted by label, and profiles fold through
    /// the commutative [`ProfSnapshot::merge`].
    ///
    /// The merged manifest's `results_digest` is left empty — values live
    /// in the shared cache, not the manifests; the merge executor
    /// recomputes it after loading the results.
    pub fn merge_shards(mut shards: Vec<RunManifest>) -> Result<RunManifest, String> {
        if shards.is_empty() {
            return Err("no shard manifests to merge".into());
        }
        shards.sort_by_key(|m| m.shard.map(|s| s.index));
        let total = match shards[0].shard {
            Some(s) => s.total,
            None => return Err(format!("'{}' has no shard info", shards[0].experiment)),
        };
        if shards.len() != total {
            return Err(format!(
                "have {} shard manifests, campaign was split {total} ways",
                shards.len()
            ));
        }
        for (k, m) in shards.iter().enumerate() {
            let info = m
                .shard
                .ok_or_else(|| format!("'{}' has no shard info", m.experiment))?;
            if info.total != total || info.index != k {
                return Err(format!(
                    "shard set is not 0..{total}: found shard {}/{} at position {k}",
                    info.index, info.total
                ));
            }
            if m.experiment != shards[0].experiment
                || m.version != shards[0].version
                || m.total_cells != shards[0].total_cells
            {
                return Err(format!(
                    "shard {k} disagrees on campaign identity: {}/{}/{} vs {}/{}/{}",
                    m.experiment,
                    m.version,
                    m.total_cells,
                    shards[0].experiment,
                    shards[0].version,
                    shards[0].total_cells
                ));
            }
        }
        let total_cells = shards[0].total_cells;
        // Each shard's records by cell index, built once; the first record
        // per index wins.
        let by_index: Vec<Vec<Option<&CellRecord>>> = shards
            .iter()
            .map(|m| {
                let mut slots = vec![None; total_cells];
                for c in &m.cells {
                    if let Some(slot @ None) = slots.get_mut(c.index) {
                        *slot = Some(c);
                    }
                }
                slots
            })
            .collect();
        let mut cells: Vec<CellRecord> = Vec::with_capacity(total_cells);
        for i in 0..total_cells {
            let rec = by_index[i % total][i]
                .ok_or_else(|| format!("cell {i} missing from shard {}", i % total))?;
            if rec.status == CellStatus::Skipped {
                return Err(format!(
                    "cell {i} ('{}') skipped by its owning shard {}",
                    rec.label,
                    i % total
                ));
            }
            for (k, other) in by_index.iter().enumerate() {
                if k == i % total {
                    continue;
                }
                if let Some(dup) = other[i] {
                    if dup.status != CellStatus::Skipped {
                        return Err(format!(
                            "cell {i} ('{}') owned by shard {} but also executed by shard {k}",
                            rec.label,
                            i % total
                        ));
                    }
                }
            }
            cells.push(rec.clone());
        }
        let wall_secs = shards.iter().fold(0.0f64, |w, m| w.max(m.wall_secs));
        let workers: usize = shards.iter().map(|m| m.workers).sum();
        let events_total: u64 = shards.iter().map(|m| m.events_total).sum();
        let worker_busy_secs: f64 = shards.iter().map(|m| m.worker_busy_secs).sum();
        let mut wall: Vec<f64> = cells
            .iter()
            .filter(|c| !c.cached && c.status.succeeded())
            .map(|c| c.wall_ms)
            .collect();
        wall.sort_by(|a, b| a.total_cmp(b));
        let mut annotations: Vec<FctAnnotation> = shards
            .iter()
            .flat_map(|m| m.annotations.iter().cloned())
            .collect();
        annotations.sort_by(|a, b| a.label.cmp(&b.label));
        let mut scope_annotations: Vec<ScopeAnnotation> = shards
            .iter()
            .flat_map(|m| m.scope_annotations.iter().cloned())
            .collect();
        scope_annotations.sort_by(|a, b| a.label.cmp(&b.label).then(a.n.cmp(&b.n)));
        let mut prof = ProfSnapshot::default();
        for m in &shards {
            prof.merge(&m.prof);
        }
        let mut merged = RunManifest {
            experiment: shards[0].experiment.clone(),
            version: shards[0].version.clone(),
            executor: format!("merged({total} shards)"),
            shard: None,
            workers,
            total_cells,
            cache_hits: shards.iter().map(|m| m.cache_hits).sum(),
            cache_misses: shards.iter().map(|m| m.cache_misses).sum(),
            cells_skipped: 0,
            wall_secs,
            cells_per_sec: if wall_secs > 0.0 {
                total_cells as f64 / wall_secs
            } else {
                0.0
            },
            events_total,
            events_per_sec: if wall_secs > 0.0 {
                events_total as f64 / wall_secs
            } else {
                0.0
            },
            worker_busy_secs,
            utilization: if wall_secs > 0.0 && workers > 0 {
                worker_busy_secs / (wall_secs * workers as f64)
            } else {
                0.0
            },
            wall_ms_p50: nearest_rank(&wall, 50.0),
            wall_ms_p99: nearest_rank(&wall, 99.0),
            cells_failed: shards.iter().map(|m| m.cells_failed).sum(),
            cell_timeouts: shards.iter().map(|m| m.cell_timeouts).sum(),
            cache_quarantined: shards.iter().map(|m| m.cache_quarantined).sum(),
            cells_reassigned: shards.iter().map(|m| m.cells_reassigned).sum(),
            results_digest: String::new(),
            fingerprint: String::new(),
            annotations,
            scope_annotations,
            prof,
            cells,
        };
        merged.fingerprint = merged.compute_fingerprint();
        Ok(merged)
    }

    /// Whether every cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.cells_failed == 0
    }

    /// Fraction of cells served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.total_cells == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.total_cells as f64
        }
    }

    /// Human-readable end-of-campaign summary: one header line plus the
    /// slowest computed cells, ready to print on stderr.
    pub fn summary(&self) -> String {
        let shard_tag = match self.shard {
            Some(s) => format!(" [shard {}/{}]", s.index, s.total),
            None => String::new(),
        };
        let mut s = format!(
            "{}{}: {} cells in {:.2}s | {} hit / {} miss | {} events ({}/s) | \
             {} workers busy {:.2}s ({:.0}% util)\n",
            self.experiment,
            shard_tag,
            self.total_cells,
            self.wall_secs,
            self.cache_hits,
            self.cache_misses,
            human_count(self.events_total),
            human_count(self.events_per_sec as u64),
            self.workers,
            self.worker_busy_secs,
            self.utilization * 100.0,
        );
        if self.cells_failed > 0 || self.cache_quarantined > 0 {
            s.push_str(&format!(
                "  resilience: {} failed ({} timed out) | {} cache entries quarantined\n",
                self.cells_failed, self.cell_timeouts, self.cache_quarantined,
            ));
            for c in self
                .cells
                .iter()
                .filter(|c| !c.status.succeeded() && c.status != CellStatus::Skipped)
            {
                s.push_str(&format!("  {:?} {}: {}\n", c.status, c.label, c.error));
            }
        }
        if self.cells_reassigned > 0 {
            s.push_str(&format!(
                "  recovery: {} cells reassigned\n",
                self.cells_reassigned
            ));
        }
        if !self.prof.is_empty() {
            s.push_str(&format!(
                "  profile: {:.1}% of {:.1} ms attributed over {} span paths\n",
                self.prof.coverage_percent(),
                self.prof.total_ns() as f64 / 1e6,
                self.prof.spans.len(),
            ));
        }
        let mut computed: Vec<&CellRecord> = self.cells.iter().filter(|c| !c.cached).collect();
        computed.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        for c in computed.iter().take(3) {
            s.push_str(&format!(
                "  {:>9.1} ms  {:>10} ev  {}\n",
                c.wall_ms,
                human_count(c.events),
                c.label
            ));
        }
        s
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
pub(crate) fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Format a count with k/M/G suffixes for summary lines.
fn human_count(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            experiment: "exp".into(),
            version: "v1".into(),
            executor: "pool".into(),
            shard: None,
            workers: 4,
            total_cells: 10,
            cache_hits: 9,
            cache_misses: 1,
            cells_skipped: 0,
            wall_secs: 2.0,
            cells_per_sec: 5.0,
            events_total: 1_500_000,
            events_per_sec: 750_000.0,
            worker_busy_secs: 1.5,
            utilization: 0.1875,
            wall_ms_p50: 1500.0,
            wall_ms_p99: 1500.0,
            cells_failed: 0,
            cell_timeouts: 0,
            cache_quarantined: 0,
            cells_reassigned: 0,
            results_digest: "00aa00aa00aa00aa".into(),
            fingerprint: String::new(),
            annotations: vec![FctAnnotation {
                label: "fleet/demo/<=2MB".into(),
                n: 1800,
                p50: 0.21,
                p90: 0.74,
                p99: 2.5,
                p999: 6.1,
            }],
            scope_annotations: vec![ScopeAnnotation {
                label: "scope/demo/queue_depth".into(),
                n: 420,
                p50: 0.001,
                p90: 0.004,
                p99: 0.009,
                p999: 0.012,
            }],
            prof: ProfSnapshot {
                spans: vec![simtrace::ProfSpan {
                    path: "cell;sim/step".into(),
                    self_ns: 1_000_000,
                    calls: 10,
                }],
            },
            cells: vec![
                CellRecord {
                    index: 0,
                    label: "c0".into(),
                    seed: 1,
                    key: "00112233aabbccdd".into(),
                    cached: true,
                    wall_ms: 0.0,
                    events: 0,
                    status: CellStatus::Ok,
                    error: String::new(),
                    flightrec: String::new(),
                },
                CellRecord {
                    index: 1,
                    label: "c1".into(),
                    seed: 2,
                    key: "00112233aabbccde".into(),
                    cached: false,
                    wall_ms: 1500.0,
                    events: 1_500_000,
                    status: CellStatus::Ok,
                    error: String::new(),
                    flightrec: String::new(),
                },
            ],
        }
    }

    #[test]
    fn renders_and_reports_hit_rate() {
        let m = sample();
        assert!((m.hit_rate() - 0.9).abs() < 1e-12);
        let json = m.to_json_string();
        assert!(json.contains("\"experiment\":\"exp\""));
        assert!(json.contains("\"cache_hits\":9"));
        assert!(json.contains("\"events_total\":1500000"));
        assert!(json.contains("\"worker_busy_secs\":1.5"));
        assert!(json.contains("\"wall_ms_p50\":"));
        assert!(json.contains("\"wall_ms_p99\":"));
        assert!(json.contains("\"executor\":\"pool\""));
        assert!(json.contains("\"results_digest\":\"00aa00aa00aa00aa\""));
        assert!(json.contains("scope/demo/queue_depth"));
        assert!(json.contains("cell;sim/step"));
        assert!(json.ends_with('\n'));
        // Must parse back as JSON.
        assert!(serde::Json::parse(json.trim()).is_some());
    }

    #[test]
    fn roundtrips_through_json() {
        let m = sample();
        let json = serde::Json::parse(m.to_json_string().trim()).unwrap();
        let back = RunManifest::from_json(&json).expect("manifest should deserialize");
        assert_eq!(back.to_json_string(), m.to_json_string());
    }

    #[test]
    fn summary_lists_slowest_computed_cells() {
        let s = sample().summary();
        assert!(s.contains("exp: 10 cells"));
        assert!(s.contains("1.5M events"));
        assert!(s.contains("c1"), "computed cell should be listed: {s}");
        assert!(!s.contains(" c0"), "cached cell must not be listed: {s}");
        assert!(
            !s.contains("resilience:"),
            "clean run must not print a failure block: {s}"
        );
    }

    #[test]
    fn failures_render_in_json_and_summary() {
        let mut m = sample();
        m.cells_failed = 1;
        m.cell_timeouts = 1;
        m.cells[1].status = CellStatus::TimedOut;
        m.cells[1].error = "wall-clock budget exceeded (5s)".into();
        assert!(!m.all_ok());
        let json = m.to_json_string();
        assert!(json.contains("\"cells_failed\":1"));
        assert!(json.contains("\"status\":\"TimedOut\""));
        assert!(json.contains("wall-clock budget exceeded"));
        let s = m.summary();
        assert!(
            s.contains("resilience: 1 failed (1 timed out) | 0 cache"),
            "{s}"
        );
        assert!(s.contains("TimedOut c1: wall-clock budget exceeded"), "{s}");
    }

    #[test]
    fn fingerprint_ignores_wall_clock_but_not_content() {
        let m = sample();
        let fp = m.compute_fingerprint();
        let mut noisy = m.clone();
        noisy.wall_secs = 99.0;
        noisy.workers = 1;
        noisy.executor = "merged(2 shards)".into();
        noisy.cells[1].wall_ms = 1.0;
        noisy.cells[1].cached = true;
        assert_eq!(
            noisy.compute_fingerprint(),
            fp,
            "wall-clock noise must not move the fingerprint"
        );
        let mut changed = m.clone();
        changed.cells[1].status = CellStatus::Panicked;
        assert_ne!(
            changed.compute_fingerprint(),
            fp,
            "status changes must move the fingerprint"
        );
        let mut redone = m;
        redone.results_digest = "ffffffffffffffff".into();
        assert_ne!(
            redone.compute_fingerprint(),
            fp,
            "result changes must move the fingerprint"
        );
    }

    #[test]
    fn writes_to_disk_and_reads_back_sealed() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-manifest-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("m.json");
        sample().write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"total_cells\":10"));
        let back = RunManifest::read(&path).unwrap();
        assert_eq!(
            back.fingerprint,
            back.compute_fingerprint(),
            "write() must seal a fingerprint consistent with the content"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_paths_are_stable() {
        assert_eq!(
            shard_manifest_path(Path::new("results/fig17"), 1, 4),
            PathBuf::from("results/fig17.shard1of4.manifest.json")
        );
    }

    #[test]
    fn read_defaults_missing_recovery_counters() {
        // A manifest written before merge-time reassignment has no
        // `cells_reassigned`; read() must default it instead of failing.
        let dir =
            std::env::temp_dir().join(format!("simrunner-manifest-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("old.json");
        let json = sample()
            .to_json_string()
            .replace(",\"cells_reassigned\":0", "");
        assert!(!json.contains("cells_reassigned"), "strip failed: {json}");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, json).unwrap();
        let back = RunManifest::read(&path).expect("pre-recovery manifest must still read");
        assert_eq!(back.cells_reassigned, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_manifests_with_retired_supervision_counters() {
        // Manifests written while a same-host shard supervisor existed
        // carry two more counters around `cells_reassigned`; they must
        // read back with the fingerprint they were sealed with.
        let dir =
            std::env::temp_dir().join(format!("simrunner-manifest-retired-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("supervised.json");
        let mut m = sample();
        m.cells_reassigned = 3;
        m.fingerprint = m.compute_fingerprint();
        let json = m.to_json_string().replace(
            "\"cells_reassigned\":3,",
            "\"shard_restarts\":2,\"cells_reassigned\":3,\"lease_expiries\":1,",
        );
        assert!(
            json.contains("\"cache_quarantined\":0,\"shard_restarts\":2,")
                && json.contains("\"lease_expiries\":1,\"results_digest\""),
            "splice failed: {json}"
        );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, json).unwrap();
        let back = RunManifest::read(&path).expect("supervisor-era manifest must still read");
        assert_eq!(back.cells_reassigned, 3);
        assert_eq!(back.fingerprint, m.fingerprint);
        assert_eq!(back.compute_fingerprint(), m.fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest written while the runner still retried panicking cells:
    /// a 4-cell record-failures campaign whose `cell-2` panicked on both
    /// of its two attempts. It carries the retired `cell_retries` counter
    /// and per-cell `attempts`.
    const RETRY_ERA_MANIFEST: &str = r#"{"experiment":"retry-era","version":"v1","executor":"pool","shard":null,"workers":1,"total_cells":4,"cache_hits":0,"cache_misses":4,"cells_skipped":0,"wall_secs":0.064361596,"cells_per_sec":62.148862809430646,"events_total":0,"events_per_sec":0,"worker_busy_secs":0.00000243,"utilization":0.00003775543415672912,"wall_ms_p50":0.00095,"wall_ms_p99":0.001271,"cells_failed":1,"cell_retries":1,"cell_timeouts":0,"cache_quarantined":0,"cells_reassigned":0,"results_digest":"","fingerprint":"ae283d3aeecaa302","annotations":[],"scope_annotations":[],"prof":{"spans":[]},"cells":[{"index":0,"label":"cell-0","seed":0,"key":"d78e2ad3c50a6f23","cached":false,"wall_ms":0.001271,"events":0,"status":"Ok","attempts":1,"error":"","flightrec":""},{"index":1,"label":"cell-1","seed":1,"key":"dde3d0d94ca996fb","cached":false,"wall_ms":0.000209,"events":0,"status":"Ok","attempts":1,"error":"","flightrec":""},{"index":2,"label":"cell-2","seed":2,"key":"e43976ded448bed3","cached":false,"wall_ms":0,"events":0,"status":"Panicked","attempts":2,"error":"injected","flightrec":""},{"index":3,"label":"cell-3","seed":3,"key":"ea8f1ce45be7e6ab","cached":false,"wall_ms":0.00095,"events":0,"status":"Ok","attempts":1,"error":"","flightrec":""}]}
"#;

    #[test]
    fn reads_manifests_with_retired_retry_fields() {
        let dir = std::env::temp_dir().join(format!(
            "simrunner-manifest-retry-era-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retry-era.manifest.json");
        std::fs::write(&path, RETRY_ERA_MANIFEST).unwrap();
        let back = RunManifest::read(&path).expect("retry-era manifest must still read");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.fingerprint, "ae283d3aeecaa302");
        assert_eq!(back.compute_fingerprint(), back.fingerprint);
        assert_eq!(back.cells_failed, 1);
        assert_eq!(back.cells[2].status, CellStatus::Panicked);

        // The same campaign run today fingerprints identically: dropping
        // the attempt counts changed no content the fingerprint covers.
        let mut c = crate::Campaign::new("retry-era", "v1");
        for seed in 0..4u64 {
            c.cell(format!("cell-{seed}"), format!("seed={seed}"), seed);
        }
        let now = c.run(
            &crate::RunnerOpts::serial().record_failures().executor(),
            |cell| {
                if cell.seed == 2 {
                    panic!("injected");
                }
                cell.seed as f64 / 4.0
            },
        );
        assert_eq!(now.manifest.fingerprint, back.fingerprint);
    }

    #[test]
    fn fingerprint_ignores_recovery_counters() {
        let m = sample();
        let fp = m.compute_fingerprint();
        let mut recovered = m;
        recovered.cells_reassigned = 14;
        assert_eq!(
            recovered.compute_fingerprint(),
            fp,
            "recovery bookkeeping must not move the fingerprint"
        );
        let s = recovered.summary();
        assert!(s.contains("recovery: 14 cells reassigned"), "{s}");
    }

    fn shard_pair() -> Vec<RunManifest> {
        let mut base = sample();
        base.total_cells = 3;
        base.annotations.clear();
        base.scope_annotations.clear();
        base.prof = ProfSnapshot::default();
        base.results_digest = String::new();
        let rec = |i: usize, status: CellStatus| CellRecord {
            index: i,
            label: format!("c{i}"),
            seed: i as u64,
            key: format!("{:016x}", 0xabc0 + i as u64),
            cached: false,
            wall_ms: 10.0 * (i + 1) as f64,
            events: 100,
            status,
            error: String::new(),
            flightrec: String::new(),
        };
        let mut s0 = base.clone();
        s0.shard = Some(ShardInfo { index: 0, total: 2 });
        s0.executor = "shard 0/2".into();
        s0.workers = 1;
        s0.cache_hits = 0;
        s0.cache_misses = 2;
        s0.cells_skipped = 1;
        s0.cells = vec![
            rec(0, CellStatus::Ok),
            rec(1, CellStatus::Skipped),
            rec(2, CellStatus::Ok),
        ];
        let mut s1 = base;
        s1.shard = Some(ShardInfo { index: 1, total: 2 });
        s1.executor = "shard 1/2".into();
        s1.workers = 1;
        s1.cache_hits = 1;
        s1.cache_misses = 0;
        s1.cells_skipped = 2;
        s1.cells = vec![
            rec(0, CellStatus::Skipped),
            rec(1, CellStatus::Ok),
            rec(2, CellStatus::Skipped),
        ];
        vec![s0, s1]
    }

    #[test]
    fn merge_shards_is_commutative_and_covers_all_cells() {
        let shards = shard_pair();
        let ab = RunManifest::merge_shards(shards.clone()).unwrap();
        let ba =
            RunManifest::merge_shards(shards.iter().rev().cloned().collect::<Vec<_>>()).unwrap();
        assert_eq!(
            ab.to_json_string(),
            ba.to_json_string(),
            "merge must be order-independent"
        );
        assert_eq!(ab.total_cells, 3);
        assert_eq!(ab.cells.len(), 3);
        assert!(ab.cells.iter().all(|c| c.status == CellStatus::Ok));
        assert_eq!(ab.cells_skipped, 0);
        assert_eq!(ab.cache_hits, 1);
        assert_eq!(ab.workers, 2);
        assert!(ab.shard.is_none());
        assert_eq!(ab.fingerprint, ab.compute_fingerprint());
    }

    #[test]
    fn merge_shards_rejects_incomplete_and_overlapping_sets() {
        let shards = shard_pair();
        let err = RunManifest::merge_shards(vec![shards[0].clone()]).unwrap_err();
        assert!(err.contains("split 2 ways"), "{err}");
        let mut overlap = shards.clone();
        overlap[1].cells[0].status = CellStatus::Ok;
        let err = RunManifest::merge_shards(overlap).unwrap_err();
        assert!(err.contains("also executed"), "{err}");
        let mut hole = shards;
        hole[1].cells[1].status = CellStatus::Skipped;
        let err = RunManifest::merge_shards(hole).unwrap_err();
        assert!(err.contains("skipped by its owning shard"), "{err}");
    }

    #[test]
    fn merge_shards_rejects_mismatched_campaign_version() {
        let mut shards = shard_pair();
        shards[1].version = "v2-other-binary".into();
        let err = RunManifest::merge_shards(shards).unwrap_err();
        assert!(err.contains("disagrees on campaign identity"), "{err}");
    }

    #[test]
    fn merge_shards_is_linear_in_cells() {
        // Two 50,000-cell shard manifests, each recording every cell
        // (owned or skipped), as real shards do. A per-cell search of
        // the record lists makes this merge quadratic.
        const N: usize = 50_000;
        let mut shards = shard_pair();
        for (k, m) in shards.iter_mut().enumerate() {
            m.total_cells = N;
            m.cells = (0..N)
                .map(|i| CellRecord {
                    index: i,
                    label: format!("c{i}"),
                    seed: i as u64,
                    key: format!("{i:016x}"),
                    cached: false,
                    wall_ms: 1.0,
                    events: 0,
                    status: if i % 2 == k {
                        CellStatus::Ok
                    } else {
                        CellStatus::Skipped
                    },
                    error: String::new(),
                    flightrec: String::new(),
                })
                .collect();
        }
        let t = std::time::Instant::now();
        let merged = RunManifest::merge_shards(shards).unwrap();
        let took = t.elapsed();
        assert_eq!(merged.cells.len(), N);
        assert!(merged.cells.iter().enumerate().all(|(i, c)| c.index == i));
        assert!(
            took < std::time::Duration::from_secs(2),
            "merging 2 x {N} cells took {took:?}"
        );
    }

    #[test]
    fn merge_shards_takes_the_first_record_per_index() {
        let mut shards = shard_pair();
        // A later record for cell 0 in its owner, and a stray record past
        // the campaign's end, change nothing.
        let mut late = shards[0].cells[0].clone();
        late.status = CellStatus::Skipped;
        shards[0].cells.push(late);
        let mut stray = shards[1].cells[1].clone();
        stray.index = 99;
        shards[1].cells.push(stray);
        let merged = RunManifest::merge_shards(shards.clone()).unwrap();
        assert!(merged.cells.iter().all(|c| c.status == CellStatus::Ok));
        // A missing record is reported with its owner.
        shards[1].cells.retain(|c| c.index != 1);
        let err = RunManifest::merge_shards(shards).unwrap_err();
        assert_eq!(err, "cell 1 missing from shard 1");
    }

    #[test]
    fn merge_shards_sums_recovery_counters() {
        let mut shards = shard_pair();
        shards[0].cells_reassigned = 1;
        shards[1].cells_reassigned = 2;
        let merged = RunManifest::merge_shards(shards).unwrap();
        assert_eq!(merged.cells_reassigned, 3);
    }
}
