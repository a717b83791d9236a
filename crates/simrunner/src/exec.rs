//! The executor behind [`Campaign::run`]: serve the cache hits, then run
//! the misses on the pool.
//!
//! The pool is a deterministic token-tracked thread pool with panic
//! isolation, a wall-clock watchdog, and flight-recorder crash dumps.
//! Each cell runs once: a cell is a pure function of its parameters and
//! seed, so a panic or a hang would only recur on a second attempt.
//! Results commit by cell index, so the output is byte-identical at any
//! worker count and cache temperature. A killed run resumes by running
//! again on the same cache: every cell it completed is a hit.

use crate::campaign::{
    dump_flightrec, panic_message, run_bracketed, Campaign, CampaignReport, Cell, CellTelemetry,
    ExecSpec, FailurePolicy, ManifestParts, RunnerOpts,
};
use crate::manifest::{CellRecord, CellStatus, RunManifest};
use crate::progress::Progress;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Watchdog scan granularity of the pool executor.
const TICK: Duration = Duration::from_millis(20);

/// The executor returned by [`RunnerOpts::executor`]: the options a
/// campaign runs under. Kept as a type of its own for the benchmark
/// package under `perfbench/`, which calls `opts.executor()`.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    opts: &'a RunnerOpts,
}

impl RunnerOpts {
    /// The executor for these options: call sites uniformly write
    /// `campaign.run(&opts.executor(), f)`.
    pub fn executor(&self) -> Executor<'_> {
        Executor { opts: self }
    }
}

impl Executor<'_> {
    /// Execute `campaign`, computing each cell with `f`: results come
    /// back in campaign (cell-index) order with a [`RunManifest`]
    /// describing the run.
    pub(crate) fn execute<T, F>(&self, campaign: &Campaign, f: F) -> CampaignReport<T>
    where
        T: Serialize + Deserialize + Send + 'static,
        F: Fn(&Cell) -> T + Send + Sync + 'static,
    {
        match self.opts.executor {
            ExecSpec::Pool => run_pool(campaign, self.opts, f),
        }
    }
}

/// State threaded through the executor's phases.
struct Prepared<T> {
    started: Instant,
    workers: usize,
    cache: Option<crate::cache::Cache>,
    /// Each cell's cache key, computed once per run.
    keys: Vec<u64>,
    results: Vec<Option<T>>,
    records: Vec<CellRecord>,
    /// Cell indices still to compute (not served from cache).
    pending: Vec<usize>,
    cache_hits: usize,
    progress: Progress,
}

/// Failure/observability tallies from the compute phase.
#[derive(Default)]
struct Tallies {
    failed: usize,
    timeouts: u64,
    prof: simtrace::ProfSnapshot,
    scopes: Vec<simtrace::ScopeAnnotation>,
}

/// Serve the cache hits, run the misses on the pool, and assemble the
/// manifest. Detached (non-scoped) worker threads are what make
/// abandonment possible: a hung cell's thread is left behind (it dies
/// with the process) while a replacement worker keeps the pool at full
/// strength — hence the `'static` bounds on [`Campaign::run`].
fn run_pool<T, F>(campaign: &Campaign, opts: &RunnerOpts, f: F) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let mut prep = prepare::<T>(campaign, opts);
    let tallies = run_misses(campaign, opts, &mut prep, f);
    finish(campaign, opts, prep, tallies)
}

/// Phase 1: serve cells from the cache on the main thread. Each cell's
/// key is hashed once, for its record and its load; a hit is one read and
/// one decoding pass (see [`crate::cache`]). Cells that miss are left in
/// `pending` for [`run_misses`].
fn prepare<T: Deserialize>(campaign: &Campaign, opts: &RunnerOpts) -> Prepared<T> {
    let started = Instant::now();
    let workers = opts.resolved_workers();
    let cache = campaign.open_cache(opts);
    let n = campaign.cells.len();
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let keys = campaign.keys();
    let mut records = campaign.blank_records(&keys);
    let mut progress = Progress::new(&campaign.experiment, n, opts.progress);
    let mut pending: Vec<usize> = Vec::new();
    for cell in &campaign.cells {
        let hit = if opts.force_cold {
            None
        } else {
            cache
                .as_ref()
                .and_then(|c| c.load_keyed::<T>(keys[cell.index], &campaign.identity(cell)))
        };
        match hit {
            Some(v) => {
                results[cell.index] = Some(v);
                records[cell.index].cached = true;
                progress.tick(true);
            }
            None => pending.push(cell.index),
        }
    }
    let cache_hits = n - pending.len();
    Prepared {
        started,
        workers,
        cache,
        keys,
        results,
        records,
        pending,
        cache_hits,
        progress,
    }
}

/// Final phase: assemble the manifest (with results digest and
/// fingerprint), print the summary, and apply the failure policy.
fn finish<T: Serialize>(
    campaign: &Campaign,
    opts: &RunnerOpts,
    prep: Prepared<T>,
    tallies: Tallies,
) -> CampaignReport<T> {
    prep.progress.finish();
    let quarantined = prep
        .cache
        .as_ref()
        .map(|c| c.quarantined_count())
        .unwrap_or(0);
    let digest = results_digest_of(&prep.results);
    let mut manifest = campaign.assemble_manifest(ManifestParts {
        workers: prep.workers,
        cache_hits: prep.cache_hits,
        started: prep.started,
        records: prep.records,
        cells_failed: tallies.failed,
        cell_timeouts: tallies.timeouts,
        cache_quarantined: quarantined,
        results_digest: digest,
        prof: tallies.prof,
        scope_annotations: tallies.scopes,
    });
    manifest.fingerprint = manifest.compute_fingerprint();
    if opts.progress {
        eprint!("{}", manifest.summary());
    }
    if opts.on_failure == FailurePolicy::Raise {
        raise_first_failure(&manifest);
    }
    CampaignReport {
        results: prep.results,
        manifest,
    }
}

/// Re-raise the first terminal cell failure with the old single-process
/// message shape ("campaign 'x' cell 'y' panicked: boom").
fn raise_first_failure(m: &RunManifest) {
    if let Some(rec) = m.cells.iter().find(|r| !r.status.succeeded()) {
        let verb = match rec.status {
            CellStatus::TimedOut => "timed out",
            _ => "panicked",
        };
        panic!(
            "campaign '{}' cell '{}' {verb}: {}",
            m.experiment, rec.label, rec.error
        );
    }
}

/// FNV-1a digest over the results, keyed by cell index. A failed cell
/// (a `None`) makes the digest meaningless, so it comes back empty. The
/// serde shim's f64 rendering round-trips exactly, so a digest over
/// re-serialized cached values equals the digest over freshly computed
/// ones.
fn results_digest_of<T: Serialize>(results: &[Option<T>]) -> String {
    // The canonical text is `<index>\0<value JSON>\n` per result, hashed
    // one line at a time through a reused buffer.
    let mut hash = crate::Fnv1a::new();
    let mut line = String::new();
    for (i, r) in results.iter().enumerate() {
        let Some(v) = r else {
            return String::new();
        };
        line.clear();
        let _ = write!(line, "{i}\0");
        v.write_json(&mut line);
        line.push('\n');
        hash.write(line.as_bytes());
    }
    format!("{:016x}", hash.finish())
}

/// Phase 2: compute `prep.pending` on detached workers under the
/// watchdog loop. Workers claim cells through one shared cursor,
/// `pending[next.fetch_add(1)]`, so every pending cell is dispatched
/// exactly once; its token is its position in `pending`.
fn run_misses<T, F>(campaign: &Campaign, opts: &RunnerOpts, prep: &mut Prepared<T>, f: F) -> Tallies
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&Cell) -> T + Send + Sync + 'static,
{
    let mut tallies = Tallies::default();
    if prep.pending.is_empty() {
        return tallies;
    }
    let results = &mut prep.results;
    let records = &mut prep.records;
    let cache = &prep.cache;
    let keys = &prep.keys;
    let progress = &mut prep.progress;

    enum Msg<T> {
        Started {
            token: usize,
            /// The watchdog's view of the cell's flight recorder.
            recorder: Option<simtrace::WeakRecorder>,
        },
        Done {
            token: usize,
            /// A panic's message, with the ring to dump.
            outcome: Result<(T, CellTelemetry), (String, Option<simtrace::FlightRecorder>)>,
        },
    }
    struct InFlight {
        index: usize,
        recorder: Option<simtrace::WeakRecorder>,
        started: Option<Instant>,
    }

    let cells = Arc::new(campaign.cells.clone());
    let pending = Arc::new(prep.pending.clone());
    let next = Arc::new(AtomicUsize::new(0));
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<Msg<T>>();
    // A replacement worker spawned after a watchdog timeout continues
    // from the same cursor.
    let spawn_worker = {
        let tx = tx.clone();
        let profile = opts.profile;
        let flightrec = opts.flightrec_dir.is_some();
        move || {
            let cells = Arc::clone(&cells);
            let pending = Arc::clone(&pending);
            let next = Arc::clone(&next);
            let f = Arc::clone(&f);
            let tx = tx.clone();
            thread::spawn(move || {
                loop {
                    // Relaxed: the cursor only hands out positions, and
                    // `pending` and `cells` were shared, immutable, before
                    // any worker started.
                    let token = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = pending.get(token) else {
                        break;
                    };
                    // A cell's ring exists only while it runs: this
                    // thread holds it, and the main thread gets a weak
                    // handle with `Started`, so a hung cell's ring stays
                    // readable from outside while a finished one is freed
                    // however far the main thread lags behind.
                    let recorder = flightrec.then(|| dispatch_recorder(index));
                    simtrace::flightrec::install(recorder.clone());
                    let started = Msg::Started {
                        token,
                        recorder: recorder.as_ref().map(simtrace::FlightRecorder::downgrade),
                    };
                    if tx.send(started).is_err() {
                        break;
                    }
                    let (out, tel) = run_bracketed(profile, || f(&cells[index]));
                    simtrace::flightrec::install(None);
                    let outcome = match out {
                        Ok(v) => Ok((v, tel)),
                        Err(p) => Err((panic_message(&*p), recorder)),
                    };
                    if tx.send(Msg::Done { token, outcome }).is_err() {
                        break;
                    }
                }
            });
        }
    };
    for _ in 0..prep.workers.min(prep.pending.len()) {
        spawn_worker();
    }

    let mut inflight: HashMap<usize, InFlight> = prep
        .pending
        .iter()
        .enumerate()
        .map(|(token, &index)| {
            let fl = InFlight {
                index,
                recorder: None,
                started: None,
            };
            (token, fl)
        })
        .collect();
    let mut outstanding = prep.pending.len();

    while outstanding > 0 {
        match rx.recv_timeout(TICK) {
            Ok(Msg::Started { token, recorder }) => {
                if let Some(fl) = inflight.get_mut(&token) {
                    fl.started = Some(Instant::now());
                    fl.recorder = recorder;
                }
            }
            Ok(Msg::Done { token, outcome }) => {
                // An unknown token is a late result from a cell the
                // watchdog already abandoned: the cell's fate is sealed,
                // drop it (and never cache it).
                let Some(fl) = inflight.remove(&token) else {
                    continue;
                };
                let idx = fl.index;
                match outcome {
                    Ok((v, tel)) => {
                        if let Some(c) = cache {
                            // A failed store only costs a future miss.
                            let id = campaign.identity(&campaign.cells[idx]);
                            let _ = c.store_keyed(keys[idx], &id, &v);
                        }
                        records[idx].wall_ms = tel.wall_ms;
                        records[idx].events = tel.events;
                        tallies.prof.merge(&tel.prof);
                        tallies.scopes.extend(tel.scopes);
                        results[idx] = Some(v);
                    }
                    Err((msg, recorder)) => {
                        records[idx].status = CellStatus::Panicked;
                        records[idx].error = msg;
                        // Terminal failure: dump the black box.
                        if let (Some(dir), Some(rec)) =
                            (opts.flightrec_dir.as_deref(), recorder.as_ref())
                        {
                            if let Some(path) = dump_flightrec(dir, &campaign.cells[idx].label, rec)
                            {
                                records[idx].flightrec = path;
                            }
                        }
                        tallies.failed += 1;
                    }
                }
                outstanding -= 1;
                progress.tick(false);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        // Watchdog: abandon cells over the wall-clock budget.
        let Some(limit) = opts.cell_timeout else {
            continue;
        };
        let now = Instant::now();
        let expired: Vec<usize> = inflight
            .iter()
            .filter(|(_, fl)| fl.started.is_some_and(|t| now.duration_since(t) > limit))
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let Some(fl) = inflight.remove(&token) else {
                continue;
            };
            records[fl.index].status = CellStatus::TimedOut;
            records[fl.index].error = format!("wall-clock budget exceeded ({limit:?})");
            // The hung worker can never drain its own ring; the weak
            // handle reads it from outside while the worker holds it. (A
            // cell that finished in the instant its budget ran out has
            // already let go of its ring and leaves no dump.)
            let ring = fl
                .recorder
                .as_ref()
                .and_then(simtrace::WeakRecorder::upgrade);
            if let (Some(dir), Some(rec)) = (opts.flightrec_dir.as_deref(), ring.as_ref()) {
                if let Some(path) = dump_flightrec(dir, &campaign.cells[fl.index].label, rec) {
                    records[fl.index].flightrec = path;
                }
            }
            tallies.timeouts += 1;
            tallies.failed += 1;
            outstanding -= 1;
            progress.tick(false);
            // The abandoned worker thread is stuck in the cell; restore
            // pool capacity with a fresh thread.
            spawn_worker();
        }
    }

    // Defensive: if the channel disconnected early (no live workers),
    // account for whatever never resolved.
    for &idx in &prep.pending {
        if results[idx].is_none() && records[idx].status.succeeded() {
            records[idx].status = CellStatus::Panicked;
            records[idx].error = "worker pool disconnected".to_string();
            tallies.failed += 1;
        }
    }
    tallies
}

/// A fresh flight recorder for cell `index`, seeded so that a cell that
/// dies before producing any trace record (e.g. an injected panic at
/// dispatch) still leaves a parseable, non-empty dump naming the cell.
fn dispatch_recorder(index: usize) -> simtrace::FlightRecorder {
    let r = simtrace::FlightRecorder::new(simtrace::flightrec::DEFAULT_CAPACITY);
    r.push(simtrace::TraceRecord::metric(
        0,
        simtrace::kind::COUNTER,
        "runner.dispatch",
        index as u64,
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_campaign(n: u64) -> Campaign {
        let mut c = Campaign::new("unit", "v1");
        for seed in 0..n {
            c.cell(format!("cell-{seed}"), format!("seed={seed}"), seed);
        }
        c
    }

    #[test]
    fn results_arrive_in_cell_order() {
        let c = demo_campaign(32);
        let out = c.run(&RunnerOpts::default().with_workers(8).executor(), |cell| {
            // Uneven cell cost to scramble completion order.
            let spin = (cell.seed % 7) * 200;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            cell.seed as f64
        });
        let expect: Vec<f64> = (0..32).map(|s| s as f64).collect();
        assert_eq!(out.manifest.total_cells, 32);
        assert_eq!(out.manifest.cache_hits, 0);
        assert_eq!(out.manifest.workers, 8);
        assert!(!out.manifest.results_digest.is_empty());
        assert_eq!(out.expect_all(), expect);
    }

    #[test]
    fn empty_campaign_is_fine() {
        let c = Campaign::new("unit", "v1");
        assert!(c.is_empty());
        let out = c.run(&RunnerOpts::serial().executor(), |_| 0u64);
        assert!(out.results.is_empty());
        assert_eq!(out.manifest.total_cells, 0);
    }

    #[test]
    #[should_panic(expected = "cell 'cell-3' panicked: boom")]
    fn cell_panics_surface_with_label() {
        let c = demo_campaign(6);
        let _ = c.run(&RunnerOpts::default().with_workers(3).executor(), |cell| {
            if cell.seed == 3 {
                panic!("boom");
            }
            cell.seed
        });
    }

    #[test]
    fn cell_events_land_in_manifest_telemetry() {
        let c = demo_campaign(8);
        let out = c.run(&RunnerOpts::default().with_workers(4).executor(), |cell| {
            simtrace::runtime::add_cell_events(100 + cell.seed);
            cell.seed
        });
        let expect: u64 = (0..8).map(|s| 100 + s).sum();
        assert_eq!(out.manifest.events_total, expect);
        for rec in &out.manifest.cells {
            assert_eq!(rec.events, 100 + rec.seed);
        }
        assert!(out.manifest.events_per_sec > 0.0);
        assert!(out.manifest.worker_busy_secs >= 0.0);
        assert!(out.manifest.utilization >= 0.0 && out.manifest.utilization <= 1.0);
    }

    #[test]
    fn record_policy_survives_a_panicking_cell() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let c = demo_campaign(8);
        let opts = RunnerOpts::default().with_workers(3).record_failures();
        let clean = c.run(&opts.clone().executor(), |cell| cell.seed * 10);
        assert!(clean.all_ok());
        assert!(!clean.manifest.results_digest.is_empty());

        let calls: Arc<Vec<AtomicU32>> = Arc::new((0..8).map(|_| AtomicU32::new(0)).collect());
        let seen = Arc::clone(&calls);
        let hurt = c.run(&opts.executor(), move |cell| {
            seen[cell.index].fetch_add(1, Ordering::SeqCst);
            if cell.seed == 3 {
                panic!("injected");
            }
            cell.seed * 10
        });
        // One attempt per cell: a deterministic panic is never re-run.
        for (i, n) in calls.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "cell {i} ran more than once");
        }
        assert!(!hurt.all_ok());
        assert_eq!(hurt.manifest.cells_failed, 1);
        assert_eq!(hurt.results[3], None);
        assert!(
            hurt.manifest.results_digest.is_empty(),
            "a failed cell must void the results digest"
        );
        let rec = &hurt.manifest.cells[3];
        assert_eq!(rec.status, CellStatus::Panicked);
        assert!(rec.error.contains("injected"), "error: {}", rec.error);
        // Every other cell is byte-identical to the clean run.
        for i in (0..8).filter(|&i| i != 3) {
            assert_eq!(hurt.results[i], clean.results[i], "cell {i}");
            assert_eq!(hurt.manifest.cells[i].status, CellStatus::Ok);
        }
    }

    #[test]
    fn watchdog_abandons_a_hung_cell() {
        let c = demo_campaign(5);
        let started = Instant::now();
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_timeout(Duration::from_millis(150))
                .record_failures()
                .executor(),
            |cell| {
                if cell.seed == 1 {
                    // A "hang" that outlives the watchdog by far but
                    // still lets the leaked thread die quickly.
                    std::thread::sleep(Duration::from_secs(4));
                }
                cell.seed
            },
        );
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "campaign must not wait out the hang"
        );
        assert_eq!(out.manifest.cells_failed, 1);
        assert_eq!(out.manifest.cell_timeouts, 1);
        assert_eq!(out.manifest.cells[1].status, CellStatus::TimedOut);
        assert!(out.manifest.cells[1].error.contains("wall-clock"));
        assert_eq!(out.results[1], None);
        for i in [0usize, 2, 3, 4] {
            assert_eq!(out.results[i], Some(i as u64), "cell {i}");
        }
    }

    #[test]
    fn failed_cells_miss_the_cache_so_resume_reruns_only_them() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-resume-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(6);
        let opts = RunnerOpts::default()
            .with_workers(2)
            .with_cache(&dir)
            .record_failures();
        let broken = c.run(&opts.clone().executor(), |cell| {
            if cell.seed == 4 {
                panic!("boom");
            }
            cell.seed as f64
        });
        assert_eq!(broken.manifest.cells_failed, 1);
        assert_eq!(broken.manifest.cache_hits, 0);
        // Resume: the bug is "fixed"; only the failed cell recomputes.
        let resumed = c.run(&opts.executor(), |cell| cell.seed as f64);
        assert!(resumed.all_ok());
        assert_eq!(resumed.manifest.cache_hits, 5);
        assert_eq!(resumed.manifest.cache_misses, 1);
        assert!(!resumed.manifest.cells[4].cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_degrades_to_uncached_run() {
        // A file where the cache root should be: create_dir_all fails.
        let file =
            std::env::temp_dir().join(format!("simrunner-badroot-unit-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let c = demo_campaign(3);
        let out = c.run(&RunnerOpts::serial().with_cache(&file).executor(), |cell| {
            cell.seed
        });
        assert_eq!(out.manifest.cache_hits, 0);
        assert_eq!(out.expect_all(), vec![0, 1, 2]);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn profiled_run_lands_spans_and_wall_percentiles_in_manifest() {
        let c = demo_campaign(8);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_profile()
                .executor(),
            |cell| {
                let _g = simtrace::prof::span("cell/work");
                // Make the span worth at least a few microseconds.
                let mut acc = 0u64;
                for i in 0..20_000 {
                    acc = acc.wrapping_add(std::hint::black_box(i ^ cell.seed));
                }
                acc % 2
            },
        );
        let m = &out.manifest;
        assert!(!m.prof.is_empty(), "profiled run must record spans");
        assert!(
            m.prof.spans.iter().any(|s| s.path == "cell/work"),
            "spans: {:?}",
            m.prof.spans
        );
        let work = m.prof.spans.iter().find(|s| s.path == "cell/work").unwrap();
        assert_eq!(work.calls, 8, "one span entry per cell");
        assert!(m.wall_ms_p50 > 0.0);
        assert!(m.wall_ms_p99 >= m.wall_ms_p50);
        // An unprofiled run of the same campaign records nothing.
        let off = c.run(&RunnerOpts::default().with_workers(2).executor(), |cell| {
            cell.seed
        });
        assert!(off.manifest.prof.is_empty());
    }

    #[test]
    fn scope_annotations_flow_into_the_manifest_sorted() {
        let c = demo_campaign(4);
        let out = c.run(&RunnerOpts::default().with_workers(2).executor(), |cell| {
            simtrace::runtime::add_scope_annotation(simtrace::ScopeAnnotation {
                label: format!("scope/{}/queue_depth", cell.label),
                n: 10 + cell.seed,
                p50: 0.001,
                p90: 0.002,
                p99: 0.003,
                p999: 0.004,
            });
            cell.seed
        });
        assert_eq!(out.manifest.scope_annotations.len(), 4);
        let labels: Vec<&str> = out
            .manifest
            .scope_annotations
            .iter()
            .map(|a| a.label.as_str())
            .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(
            labels, sorted,
            "scope annotations must be canonically ordered"
        );
        assert!(out
            .manifest
            .scope_annotations
            .iter()
            .any(|a| a.label == "scope/cell-2/queue_depth" && a.n == 12));
    }

    #[test]
    fn terminal_panic_dumps_the_flight_recorder() {
        let dir =
            std::env::temp_dir().join(format!("simrunner-flightrec-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(5);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_flightrec_dir(&dir)
                .record_failures()
                .executor(),
            |cell| {
                simtrace::flightrec::record_with(|| {
                    simtrace::TraceRecord::metric(42, simtrace::kind::COUNTER, "unit.marker", 7)
                });
                if cell.seed == 3 {
                    panic!("terminal");
                }
                cell.seed
            },
        );
        assert!(!out.all_ok());
        let rec = &out.manifest.cells[3];
        assert_eq!(rec.status, CellStatus::Panicked);
        assert!(
            rec.flightrec.ends_with("cell-3.jsonl"),
            "dump path: {}",
            rec.flightrec
        );
        let dump = std::fs::read_to_string(&rec.flightrec).expect("dump exists");
        let parsed = simtrace::query::parse_jsonl(&dump).expect("dump parses");
        // Seeded dispatch record (carrying the cell index) plus the
        // cell's own marker.
        assert!(parsed
            .iter()
            .any(|r| r.name.as_deref() == Some("runner.dispatch") && r.value == Some(3.0)));
        assert!(parsed
            .iter()
            .any(|r| r.name.as_deref() == Some("unit.marker")));
        // Successful cells leave no dump.
        for i in (0..5).filter(|&i| i != 3) {
            assert!(out.manifest.cells[i].flightrec.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timed_out_cell_dumps_the_flight_recorder_from_outside() {
        let dir = std::env::temp_dir().join(format!(
            "simrunner-flightrec-hang-unit-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(3);
        let out = c.run(
            &RunnerOpts::default()
                .with_workers(2)
                .with_cell_timeout(Duration::from_millis(150))
                .with_flightrec_dir(&dir)
                .record_failures()
                .executor(),
            |cell| {
                if cell.seed == 1 {
                    std::thread::sleep(Duration::from_secs(4));
                }
                cell.seed
            },
        );
        let rec = &out.manifest.cells[1];
        assert_eq!(rec.status, CellStatus::TimedOut);
        assert!(!rec.flightrec.is_empty(), "hung cell must leave a dump");
        let dump = std::fs::read_to_string(&rec.flightrec).expect("dump exists");
        assert!(
            simtrace::query::parse_jsonl(&dump).is_ok_and(|r| !r.is_empty()),
            "dump must parse non-empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_recomputes_a_missing_cell_on_the_pool_and_records_its_panic() {
        // A rerun on a warm cache serves what an earlier run stored and
        // recomputes whatever is missing, with the pool's panic isolation
        // and flight recorder.
        let dir =
            std::env::temp_dir().join(format!("simrunner-mergepanic-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = demo_campaign(6);
        let opts = RunnerOpts::serial()
            .with_cache(dir.join("cache"))
            .with_flightrec_dir(dir.join("flightrec"))
            .record_failures();
        assert!(c.run(&opts.executor(), |cell| cell.seed).all_ok());
        // Cell 3 completed in the first run, but its entry is gone by the
        // rerun.
        let cache = crate::Cache::open(&dir.join("cache"), &c.experiment).unwrap();
        std::fs::remove_file(cache.entry_path(&c.identity(&c.cells[3]))).unwrap();
        let out = c.run(&opts.executor(), |cell| {
            if cell.seed == 3 {
                panic!("recompute failed");
            }
            cell.seed
        });
        let m = &out.manifest;
        assert_eq!((m.cache_hits, m.cache_misses), (5, 1));
        assert_eq!(m.cells[3].status, CellStatus::Panicked);
        assert!(
            m.cells[3].error.contains("recompute failed"),
            "{}",
            m.cells[3].error
        );
        assert!(
            m.cells[3].flightrec.ends_with("cell-3.jsonl"),
            "dump path: {}",
            m.cells[3].flightrec
        );
        assert_eq!(m.cells_failed, 1);
        assert!(m.results_digest.is_empty());
        assert_eq!(out.results[3], None);
        for i in (0..6).filter(|&i| i != 3) {
            assert_eq!(out.results[i], Some(i as u64), "cell {i}");
            assert_eq!(m.cells[i].status, CellStatus::Ok);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
