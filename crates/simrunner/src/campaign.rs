//! Campaigns: grids of independent simulation cells, plus the options
//! surface ([`RunnerOpts`]) that configures the executor.
//!
//! Execution itself lives in [`crate::exec`]: a [`Campaign`] is pure
//! data, and [`Campaign::run`] serves its cache hits and runs its misses
//! on the deterministic thread pool. Results commit by cell index, so the
//! output is byte-identical regardless of worker count, scheduling, or
//! cache state.

use crate::cache::{Cache, CellIdentity};
use crate::exec::Executor;
use crate::manifest::{nearest_rank, CellRecord, CellStatus, RunManifest};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// One grid cell: a single deterministic simulation run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Position in campaign order (set by [`Campaign::cell`]).
    pub index: usize,
    /// Human-readable label for progress lines and manifests.
    pub label: String,
    /// Canonical parameter string; part of the cache identity, so it must
    /// encode **every** input that influences the cell's result.
    pub params: String,
    /// The seed driving all stochastic path elements of this cell.
    pub seed: u64,
}

/// What to do when cells fail (panic or time out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Panic after the campaign drains, naming the first failed cell —
    /// the right default for figure pipelines, where a failed cell means
    /// a bug and silently aggregating fewer samples would corrupt the
    /// science. Successful cells are already cached by then, so a re-run
    /// resumes from where it failed.
    #[default]
    Raise,
    /// Record failures in the manifest and return `None` slots — for
    /// chaos campaigns and anything that treats failures as data.
    Record,
}

/// The executor [`RunnerOpts::executor`] selects: there is one. A
/// compatibility stub for the benchmark package under `perfbench/`, which
/// names `ExecSpec::Pool` in a test (see DESIGN §5d).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ExecSpec {
    /// The deterministic token-tracked thread pool with panic isolation,
    /// a wall-clock watchdog and flight-recorder dumps.
    #[default]
    Pool,
}

/// How to execute a campaign: worker counts, caching, resilience and
/// observability.
///
/// # Environment knobs
///
/// [`env_overrides`](RunnerOpts::env_overrides) layers the `SUSS_*`
/// runner knobs over explicit options; every other setting is a bench
/// binary flag. Malformed values never abort a campaign: each one warns
/// on stderr and keeps the prior value.
///
/// | Variable | Effect |
/// |---|---|
/// | `SUSS_CACHE_DIR` | result-cache root (empty = keep current) |
/// | `SUSS_CELL_TIMEOUT_MS` | per-cell wall budget (`0` disables) |
/// | `SUSS_PROF` | `0` disables, anything else enables the span profiler |
///
/// (`SUSS_TRACE` — the event-trace output path — is consumed by the
/// bench CLI and `suss-sim`, not by the runner; it selects where traces
/// go, not how cells execute.)
#[derive(Debug, Clone, Default)]
pub struct RunnerOpts {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Result-cache root (e.g. `results/cache`); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Ignore existing cache entries (results are still stored back).
    pub force_cold: bool,
    /// Stream progress to stderr.
    pub progress: bool,
    /// Per-cell wall-clock budget (pool executor): a cell still computing
    /// past this is abandoned as [`TimedOut`](CellStatus::TimedOut).
    /// `None` = unbounded. This is the runner's only watchdog; cells are
    /// deterministic, so neither a timeout nor a panic is retried.
    pub cell_timeout: Option<Duration>,
    /// Enable the span profiler (`simtrace::prof`) around each computed
    /// cell; per-cell snapshots merge into [`RunManifest::prof`].
    /// Observability-only: results are byte-identical either way.
    pub profile: bool,
    /// Directory for flight-recorder crash dumps. When set, the pool
    /// executor arms a bounded ring of recent [`simtrace::TraceRecord`]s
    /// per in-flight cell and dumps it to `<dir>/<cell>.jsonl` when the
    /// cell panics or is abandoned by the watchdog. `None`
    /// disables the recorder.
    pub flightrec_dir: Option<PathBuf>,
    /// What to do when cells fail terminally; see [`FailurePolicy`].
    pub on_failure: FailurePolicy,
    /// The executor [`RunnerOpts::executor`] selects; [`ExecSpec`] has
    /// one variant.
    pub executor: ExecSpec,
    /// Unread: nothing writes a manifest from the runner's options. A
    /// compatibility stub for the benchmark package under `perfbench/`,
    /// which sets it (see DESIGN §5d).
    pub manifest_stem: Option<PathBuf>,
}

impl RunnerOpts {
    /// Single-worker execution (the reference serial path).
    pub fn serial() -> Self {
        RunnerOpts {
            workers: 1,
            ..Self::default()
        }
    }

    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable the result cache rooted at `dir`.
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Set the per-cell wall-clock budget (pool executor).
    pub fn with_cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Enable the per-cell span profiler.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enable flight-recorder crash dumps under `dir` (pool executor).
    pub fn with_flightrec_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flightrec_dir = Some(dir.into());
        self
    }

    /// Record cell failures in the manifest instead of panicking
    /// ([`FailurePolicy::Record`]).
    pub fn record_failures(mut self) -> Self {
        self.on_failure = FailurePolicy::Record;
        self
    }

    /// Apply the `SUSS_*` environment overrides on top of these options
    /// (see the [type docs](RunnerOpts) for the variable table), warning
    /// on stderr about malformed values.
    pub fn env_overrides(self) -> Self {
        let (opts, warnings) = self.apply_env(|k| std::env::var(k).ok());
        for w in warnings {
            eprintln!("warning: {w}");
        }
        opts
    }

    /// The pure core of [`env_overrides`](Self::env_overrides): apply the
    /// `SUSS_*` knobs read through `get`, returning the updated options
    /// and a warning per malformed value (the prior value is kept).
    /// Injectable so the parsing path is testable without mutating
    /// process-global environment state.
    fn apply_env(mut self, get: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let mut warn = |key: &str, val: &str, want: &str| {
            warnings.push(format!("ignoring {key}={val:?}: expected {want}"));
        };
        if let Some(d) = get("SUSS_CACHE_DIR") {
            if !d.is_empty() {
                self.cache_dir = Some(PathBuf::from(d));
            }
        }
        if let Some(ms) = get("SUSS_CELL_TIMEOUT_MS") {
            match ms.parse::<u64>() {
                Ok(ms) => self.cell_timeout = (ms > 0).then(|| Duration::from_millis(ms)),
                Err(_) => warn("SUSS_CELL_TIMEOUT_MS", &ms, "milliseconds (0 disables)"),
            }
        }
        if let Some(p) = get("SUSS_PROF") {
            self.profile = p != "0";
        }
        (self, warnings)
    }

    pub(crate) fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// A named grid of cells, executed together.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Experiment id (cache namespace and manifest header).
    pub experiment: String,
    /// Code-relevant version tag: bump when a change invalidates cached
    /// results (simulator physics, experiment logic, value encoding).
    pub version: String,
    /// The cells, in aggregation order.
    pub cells: Vec<Cell>,
}

/// What [`Campaign::run`] returns.
///
/// Failed cells come back as `None` with their status and terminal error
/// recorded in the manifest; under the default [`FailurePolicy::Raise`] a
/// failure panics instead, so every slot is `Some` by construction.
#[derive(Debug)]
pub struct CampaignReport<T> {
    /// Per-cell results in campaign (cell-index) order — independent of
    /// worker count, scheduling, and cache state. `None` marks a failed
    /// cell.
    pub results: Vec<Option<T>>,
    /// The run's manifest (timings, cache hits, per-cell records,
    /// failure totals, results digest).
    pub manifest: RunManifest,
}

impl<T> CampaignReport<T> {
    /// Whether every cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.manifest.all_ok()
    }

    /// Unwrap every result, panicking with the first failed cell's label
    /// if any is missing. Infallible after a [`FailurePolicy::Raise`]
    /// run.
    pub fn expect_all(self) -> Vec<T> {
        if let Some(rec) = self.manifest.cells.iter().find(|r| !r.status.succeeded()) {
            panic!(
                "campaign '{}' cell '{}' has no result ({:?}: {})",
                self.manifest.experiment, rec.label, rec.status, rec.error
            );
        }
        self.results
            .into_iter()
            .map(|r| r.expect("statuses all succeeded"))
            .collect()
    }
}

impl Campaign {
    /// Create an empty campaign.
    pub fn new(experiment: impl Into<String>, version: impl Into<String>) -> Self {
        Campaign {
            experiment: experiment.into(),
            version: version.into(),
            cells: Vec::new(),
        }
    }

    /// Append a cell; returns its index.
    pub fn cell(
        &mut self,
        label: impl Into<String>,
        params: impl Into<String>,
        seed: u64,
    ) -> usize {
        let index = self.cells.len();
        self.cells.push(Cell {
            index,
            label: label.into(),
            params: params.into(),
            seed,
        });
        index
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the campaign has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Execute every cell on `exec` (from [`RunnerOpts::executor`]) and
    /// return results in campaign order: cache hits are served, misses
    /// run on the pool.
    ///
    /// Each cell is computed solely from its own [`Cell`] (independent
    /// seeding) and results commit by cell index, so the output — and
    /// anything aggregated from it in order — is byte-identical whether
    /// this runs on 1 worker or 64, cold, fully cached, or resuming a
    /// killed run on its cache.
    ///
    /// # Panics
    /// Under [`FailurePolicy::Raise`] (the default), re-raises the first
    /// cell failure (with the cell's label) after the campaign drains —
    /// successful cells are cached by then, so a re-run resumes from the
    /// failure.
    pub fn run<T, F>(&self, exec: &Executor<'_>, f: F) -> CampaignReport<T>
    where
        T: Serialize + Deserialize + Send + 'static,
        F: Fn(&Cell) -> T + Send + Sync + 'static,
    {
        exec.execute(self, f)
    }

    pub(crate) fn identity<'a>(&'a self, cell: &'a Cell) -> CellIdentity<'a> {
        CellIdentity {
            experiment: &self.experiment,
            version: &self.version,
            params: &cell.params,
            seed: cell.seed,
        }
    }

    /// Open the result cache, degrading to uncached execution (with a
    /// stderr warning) when the directory cannot be created — a read-only
    /// results volume shouldn't kill a multi-hour campaign.
    pub(crate) fn open_cache(&self, opts: &RunnerOpts) -> Option<Cache> {
        let root = opts.cache_dir.as_deref()?;
        match Cache::open(root, &self.experiment) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!(
                    "warning: cache disabled, cannot open {}: {e}",
                    root.display()
                );
                None
            }
        }
    }

    /// Each cell's cache key ([`CellIdentity::key`]), in cell order.
    pub(crate) fn keys(&self) -> Vec<u64> {
        self.cells.iter().map(|c| self.identity(c).key()).collect()
    }

    /// A fresh record per cell, filed under its key from `keys`.
    pub(crate) fn blank_records(&self, keys: &[u64]) -> Vec<CellRecord> {
        self.cells
            .iter()
            .zip(keys)
            .map(|(c, key)| CellRecord {
                index: c.index,
                label: c.label.clone(),
                seed: c.seed,
                key: String::from_utf8(crate::cache::key_hex(*key).to_vec()).expect("hex digits"),
                cached: false,
                wall_ms: 0.0,
                events: 0,
                status: CellStatus::Ok,
                error: String::new(),
                flightrec: String::new(),
            })
            .collect()
    }

    pub(crate) fn assemble_manifest(&self, parts: ManifestParts) -> RunManifest {
        let n = self.cells.len();
        let wall_secs = parts.started.elapsed().as_secs_f64();
        let events_total: u64 = parts.records.iter().map(|r| r.events).sum();
        let worker_busy_secs: f64 = parts.records.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3;
        let mut walls: Vec<f64> = parts
            .records
            .iter()
            .filter(|r| !r.cached && r.status.succeeded())
            .map(|r| r.wall_ms)
            .collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        let mut scope_annotations = parts.scope_annotations;
        // Canonical order: harvest order is completion order, which is
        // scheduling-dependent; sorting keeps manifests byte-comparable
        // across worker counts.
        scope_annotations.sort_by(|a, b| a.label.cmp(&b.label).then(a.n.cmp(&b.n)));
        RunManifest {
            experiment: self.experiment.clone(),
            version: self.version.clone(),
            workers: parts.workers,
            total_cells: n,
            cache_hits: parts.cache_hits,
            cache_misses: n - parts.cache_hits,
            wall_secs,
            cells_per_sec: n as f64 / wall_secs.max(1e-9),
            events_total,
            events_per_sec: events_total as f64 / wall_secs.max(1e-9),
            worker_busy_secs,
            utilization: worker_busy_secs / (wall_secs.max(1e-9) * parts.workers.max(1) as f64),
            wall_ms_p50: nearest_rank(&walls, 50.0),
            wall_ms_p99: nearest_rank(&walls, 99.0),
            cells_failed: parts.cells_failed,
            cell_timeouts: parts.cell_timeouts,
            cache_quarantined: parts.cache_quarantined,
            results_digest: parts.results_digest,
            fingerprint: String::new(),
            annotations: Vec::new(),
            scope_annotations,
            prof: parts.prof,
            cells: parts.records,
        }
    }
}

/// Everything an executor hands to [`Campaign::assemble_manifest`].
pub(crate) struct ManifestParts {
    pub workers: usize,
    pub cache_hits: usize,
    pub started: Instant,
    pub records: Vec<CellRecord>,
    pub cells_failed: usize,
    pub cell_timeouts: u64,
    pub cache_quarantined: u64,
    pub results_digest: String,
    pub prof: simtrace::ProfSnapshot,
    pub scope_annotations: Vec<simtrace::ScopeAnnotation>,
}

/// Telemetry harvested from the worker's thread-locals after one cell
/// closure returns: compute time, simulator events, span profile, and
/// queued scope annotations.
pub(crate) struct CellTelemetry {
    pub wall_ms: f64,
    pub events: u64,
    pub prof: simtrace::ProfSnapshot,
    pub scopes: Vec<simtrace::ScopeAnnotation>,
}

/// Run one cell closure with the thread-local telemetry bracketed around
/// it: the event tally, span profiler, and scope-annotation queue are
/// reset before the closure and harvested after, so each record
/// attributes exactly what its own closure produced.
pub(crate) fn run_bracketed<T>(
    profile: bool,
    f: impl FnOnce() -> T,
) -> (std::thread::Result<T>, CellTelemetry) {
    let _ = simtrace::runtime::take_cell_events();
    let _ = simtrace::runtime::take_scope_annotations();
    let _ = simtrace::prof::take();
    if profile {
        simtrace::prof::set_enabled(true);
    }
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if profile {
        simtrace::prof::set_enabled(false);
    }
    (
        outcome,
        CellTelemetry {
            wall_ms,
            events: simtrace::runtime::take_cell_events(),
            prof: simtrace::prof::take(),
            scopes: simtrace::runtime::take_scope_annotations(),
        },
    )
}

/// Sanitize a cell label into a filename: anything outside
/// `[A-Za-z0-9._-]` becomes `-`.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Write `recorder`'s ring to `<dir>/<label>.jsonl` (oldest record
/// first), returning the path on success. Dump failures only warn — the
/// cell already failed, and losing the black box must not also lose the
/// campaign.
pub(crate) fn dump_flightrec(
    dir: &Path,
    label: &str,
    recorder: &simtrace::FlightRecorder,
) -> Option<String> {
    let path = dir.join(format!("{}.jsonl", sanitize_label(label)));
    let write =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, recorder.to_jsonl()));
    match write {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("warning: flight-recorder dump failed for '{label}': {e}");
            None
        }
    }
}

/// Extract the text of a panic payload. Callers holding the
/// `Box<dyn Any + Send>` from `catch_unwind` must pass `&*payload`:
/// passing `&payload` unsizes the *box itself* into `&dyn Any` (boxes are
/// `'static + Send` too), and every downcast then fails.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_label_keeps_safe_chars() {
        assert_eq!(sanitize_label("flap:cubic+suss:2"), "flap-cubic-suss-2");
        assert_eq!(sanitize_label("ok._-123"), "ok._-123");
    }

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn apply_env_parses_every_knob() {
        let (opts, warnings) = RunnerOpts::default().apply_env(env_of(&[
            ("SUSS_CACHE_DIR", "/tmp/cache"),
            ("SUSS_CELL_TIMEOUT_MS", "1500"),
            ("SUSS_PROF", "1"),
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(opts.cache_dir.as_deref(), Some(Path::new("/tmp/cache")));
        assert_eq!(opts.cell_timeout, Some(Duration::from_millis(1500)));
        assert!(opts.profile);
        // An empty cache dir keeps the current one; 0 disables the budget.
        let (opts, warnings) = opts.apply_env(env_of(&[
            ("SUSS_CACHE_DIR", ""),
            ("SUSS_CELL_TIMEOUT_MS", "0"),
            ("SUSS_PROF", "0"),
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(opts.cache_dir.as_deref(), Some(Path::new("/tmp/cache")));
        assert_eq!(opts.cell_timeout, None);
        assert!(!opts.profile);
    }

    #[test]
    fn apply_env_warns_and_keeps_prior_value_on_malformed_input() {
        let base = RunnerOpts::default().with_cell_timeout(Duration::from_millis(900));
        for bad in ["soon", "-5", "1.5"] {
            let (opts, warnings) = base
                .clone()
                .apply_env(env_of(&[("SUSS_CELL_TIMEOUT_MS", bad)]));
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            assert!(
                warnings[0].starts_with("ignoring SUSS_CELL_TIMEOUT_MS"),
                "{}",
                warnings[0]
            );
            assert_eq!(
                opts.cell_timeout,
                Some(Duration::from_millis(900)),
                "malformed value must keep the prior one"
            );
        }
    }

    #[test]
    fn serial_opts_resolve_one_worker() {
        let opts = RunnerOpts::serial();
        assert_eq!(opts.resolved_workers(), 1);
        let auto = RunnerOpts::default();
        assert!(auto.resolved_workers() >= 1);
    }
}
