//! Run manifests: the machine-readable record of one campaign execution.
//!
//! A manifest is written next to the figure's `results/*.txt` artifact
//! (e.g. `results/fig11.manifest.json`) and answers "how was this result
//! produced, how long did it take, and how much came from cache" without
//! re-running anything.

use serde::{Deserialize, Serialize};
use simtrace::{ProfSnapshot, ScopeAnnotation};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

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
}

impl CellStatus {
    /// Whether this status carries a result.
    pub fn succeeded(self) -> bool {
        self == CellStatus::Ok
    }
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
    /// Worker threads used.
    pub workers: usize,
    /// Total cells in the campaign.
    pub total_cells: usize,
    /// Cells served from cache.
    pub cache_hits: usize,
    /// Cells recomputed.
    pub cache_misses: usize,
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
    /// FNV-1a 64 digest over the campaign's results in cell order — the
    /// value-level identity of the run. Two runs that computed the same
    /// science have the same digest regardless of workers or cache
    /// temperature. Empty when some cells failed.
    pub results_digest: String,
    /// Digest over the deterministic content of this manifest (cells,
    /// statuses, results digest, FCT annotations) — excludes wall-clock
    /// fields, `cached` flags and scope annotations,
    /// so a cold run, a warm rerun and a rerun that resumes a killed run
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

    /// Digest over the deterministic content of the manifest: experiment
    /// identity, per-cell (index, label, seed, key, status), the results
    /// digest, and the FCT annotations. Wall-clock fields, `cached`
    /// flags and the scope annotations are excluded,
    /// so the fingerprint is stable across cache temperature and worker
    /// count.
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
        let mut s = format!(
            "{}: {} cells in {:.2}s | {} hit / {} miss | {} events ({}/s) | \
             {} workers busy {:.2}s ({:.0}% util)\n",
            self.experiment,
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
            for c in self.cells.iter().filter(|c| !c.status.succeeded()) {
                s.push_str(&format!("  {:?} {}: {}\n", c.status, c.label, c.error));
            }
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
            workers: 4,
            total_cells: 10,
            cache_hits: 9,
            cache_misses: 1,
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
        assert!(!json.contains("\"executor\""));
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
        let back: RunManifest = serde::from_str(text.trim()).unwrap();
        assert_eq!(
            back.fingerprint,
            back.compute_fingerprint(),
            "write() must seal a fingerprint consistent with the content"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_manifests_with_retired_supervision_counters() {
        // Manifests written while a same-host shard supervisor existed
        // carry a shard stamp and two more counters, and those of the
        // executor-choice era an `executor` label (`results/fig11.manifest.json`
        // still does); they must still parse, with the fingerprint they
        // were sealed with.
        let mut m = sample();
        m.fingerprint = m.compute_fingerprint();
        let json = m
            .to_json_string()
            .replace(
                "\"version\":\"v1\",",
                "\"version\":\"v1\",\"executor\":\"pool\",\"shard\":null,",
            )
            .replace(
                "\"cache_quarantined\":0,",
                "\"cache_quarantined\":0,\"shard_restarts\":2,\"lease_expiries\":1,",
            );
        assert!(
            json.contains("\"executor\":\"pool\",\"shard\":null,")
                && json.contains("\"lease_expiries\":1,"),
            "splice failed: {json}"
        );
        let back: RunManifest =
            serde::from_str(json.trim()).expect("supervisor-era manifest must still parse");
        assert_eq!(back.fingerprint, m.fingerprint);
        assert_eq!(back.compute_fingerprint(), m.fingerprint);
    }

    #[test]
    fn reads_manifests_with_retired_retry_fields() {
        // A 4-cell record-failures campaign whose `cell-2` panics. Its
        // fingerprint is pinned: it is the one the same campaign had when
        // the runner still retried panicking cells, so dropping the
        // retries changed no content the fingerprint covers.
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
        assert_eq!(now.manifest.fingerprint, "ae283d3aeecaa302");

        // Manifests of that era carry a `cell_retries` counter and
        // per-cell `attempts`, and those of the shard era a
        // `cells_skipped` counter; they still parse, to the same
        // fingerprint.
        let json = now
            .manifest
            .to_json_string()
            .replace(
                "\"cells_failed\":1,",
                "\"cells_failed\":1,\"cell_retries\":1,",
            )
            .replace(
                "\"cache_misses\":4,",
                "\"cache_misses\":4,\"cells_skipped\":0,",
            )
            .replace(
                "\"status\":\"Panicked\",",
                "\"status\":\"Panicked\",\"attempts\":2,",
            )
            .replace("\"status\":\"Ok\",", "\"status\":\"Ok\",\"attempts\":1,");
        assert!(
            json.contains("\"cell_retries\":1,")
                && json.contains("\"attempts\":2,")
                && json.contains("\"cells_skipped\":0,"),
            "splice failed: {json}"
        );
        let back: RunManifest =
            serde::from_str(json.trim()).expect("retry-era manifest must still parse");
        assert_eq!(back.compute_fingerprint(), "ae283d3aeecaa302");
        assert_eq!(back.cells_failed, 1);
        assert_eq!(back.cells[2].status, CellStatus::Panicked);
    }

    #[test]
    fn fingerprint_ignores_recovery_counters() {
        let m = sample();
        let fp = m.compute_fingerprint();
        let mut recovered = m;
        recovered.cache_quarantined = 14;
        assert_eq!(
            recovered.compute_fingerprint(),
            fp,
            "recovery bookkeeping must not move the fingerprint"
        );
        let s = recovered.summary();
        assert!(s.contains("| 14 cache entries quarantined"), "{s}");
    }
}
