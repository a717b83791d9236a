//! The four workloads, each run through the public entry points of
//! `experiments` and `simrunner` on one pool worker.
//!
//! A *repetition* is one whole campaign. Timed repetitions use the
//! programs' own code paths; traced repetitions swap in the mirrored
//! drivers of [`crate::drivers`] under the same campaign identities, so
//! both must produce the same campaign fingerprint.

use crate::drivers;
use crate::trace::{self, CellSpan};
use cc_algos::CcKind;
use experiments::campaigns::{FlowGrid, FlowGridRun, FlowStats, CAMPAIGN_VERSION};
use experiments::fct_sweep::fig18_scenarios;
use experiments::fleet::fleet_campaign;
use experiments::loss::LossParams;
use experiments::quic_pacing::QUIC_SIZES_FULL;
use experiments::{quic_pacing_campaign, FlowOutcome};
use serde::{Deserialize, Json, Serialize};
use simrunner::{
    Cache, Campaign, CampaignReport, CellIdentity, FctAnnotation, RunManifest, RunnerOpts,
};
use simtrace::CounterSnapshot;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{PathScenario, MB};

/// Flows per fleet cell (the full `ext_fleet` campaign).
pub const FLEET_FLOWS: u64 = 2_000;
/// Seeded repetitions of the QUIC size grid per cell (the paper's 6).
pub const QUIC_ITERS: u64 = 6;
/// Seeds per fig18 cell identity in the rerun workload.
pub const RERUN_ITERS: u64 = 10;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full Fig. 17 loss matrix: 672 single-flow TCP cells.
    Matrix,
    /// Full `ext_fleet`: 18 cells × 2,000 concurrent heavy-tailed flows.
    Fleet,
    /// Full `ext_quic_pacing`: 12 cells, 432 QUIC downloads.
    Quic,
    /// Fig. 18's 10,920 cell identities re-run against a warm cache.
    Rerun,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Matrix,
        Workload::Fleet,
        Workload::Quic,
        Workload::Rerun,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::Fleet => "fleet",
            Workload::Quic => "quic",
            Workload::Rerun => "rerun",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Runner options built explicitly, never from `SUSS_*` variables: one
/// pool worker, progress and profiler off, failures recorded rather than
/// raised, and cache, flight recorder and manifest stem all under `dir`.
pub fn runner_opts(dir: &Path) -> RunnerOpts {
    RunnerOpts {
        workers: 1,
        cache_dir: Some(dir.join("cache")),
        progress: false,
        profile: false,
        flightrec_dir: Some(dir.join("flightrec")),
        manifest_stem: Some(dir.join("manifest")),
        ..RunnerOpts::default()
    }
    .record_failures()
}

/// Flush the file system's dirty data and pending journal work (`sync
/// -f`, waited for), so that writes and deletions made before a timed
/// section are not paid for inside it. Best effort.
pub fn settle(dir: &Path) {
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(dir)
        .status();
}

/// A directory that is removed, with everything in it, when dropped.
/// Nothing inside it is deleted before then: on a file system mounted
/// with `discard`, deleting thousands of cache entries stalls later
/// writes for seconds.
pub struct Scratch {
    dir: PathBuf,
    made: std::cell::Cell<u32>,
}

impl Scratch {
    /// Create `root/<tag>-<pid>` afresh.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Scratch> {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            made: std::cell::Cell::new(0),
        })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A path for a new subdirectory, `<name>-<n>`, not used before.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let n = self.made.get();
        self.made.set(n + 1);
        self.dir.join(format!("{name}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            settle(parent);
        }
    }
}

/// One (scenario, controller, size) batch, queued with the same label and
/// parameter string `FlowGrid::batch` gives it.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// The path.
    pub scn: PathScenario,
    /// The controller.
    pub kind: CcKind,
    /// Flow size, bytes.
    pub size: u64,
}

impl BatchSpec {
    fn label(&self) -> String {
        format!("{}/{}/{}B", self.scn.id(), self.kind.label(), self.size)
    }

    fn params(&self) -> String {
        format!(
            "{} cc={} size={}",
            self.scn.canonical_params(),
            self.kind.label(),
            self.size
        )
    }
}

/// The fig17 bin's full parameters with `seed` as the seed base.
pub fn matrix_params(seed: u64) -> LossParams {
    LossParams {
        sizes: vec![6 * MB],
        iters: 8,
        seed_base: seed,
        buffer_bdp_override: Some(0.5),
    }
}

/// `loss::sweep_matrix`'s batches, in its queue order.
pub fn loss_batches(scenarios: &[PathScenario], p: &LossParams) -> Vec<BatchSpec> {
    let mut out = Vec::new();
    for scn in scenarios {
        let mut scn = *scn;
        if let Some(b) = p.buffer_bdp_override {
            scn.buffer_bdp = b;
        }
        for &size in &p.sizes {
            for kind in [CcKind::CubicSuss, CcKind::Cubic, CcKind::Bbr] {
                out.push(BatchSpec { scn, kind, size });
            }
        }
    }
    out
}

/// `fct_sweep::sweep_matrix`'s batches over fig18's full size grid.
fn fct_batches() -> Vec<BatchSpec> {
    let mut out = Vec::new();
    for scn in fig18_scenarios() {
        for size in workload::fct_sweep_sizes() {
            for kind in [CcKind::Bbr, CcKind::Cubic, CcKind::CubicSuss] {
                out.push(BatchSpec { scn, kind, size });
            }
        }
    }
    out
}

/// Queue `batches` × `iters` seeds into a grid under `experiment`,
/// computing each cell with `run(batch, seed)`; returns the grid and the
/// fold of every cell's cache key (hashed here so key hashing is part of
/// the timed set-up).
pub fn grid_of<F>(
    experiment: &str,
    batches: &[BatchSpec],
    iters: u64,
    seed_base: u64,
    run: F,
) -> (FlowGrid, u64)
where
    F: Fn(&BatchSpec, u64) -> FlowOutcome + Clone + Send + Sync + 'static,
{
    let mut grid = FlowGrid::new(experiment);
    let mut keys = 0u64;
    for b in batches {
        let params = b.params();
        for seed in seed_base..seed_base + iters {
            keys ^= CellIdentity {
                experiment,
                version: CAMPAIGN_VERSION,
                params: &params,
                seed,
            }
            .key();
        }
        let (b, run) = (*b, run.clone());
        grid.batch_fn(&b.label(), &params, iters, seed_base, move |seed| {
            run(&b, seed)
        });
    }
    (grid, keys)
}

fn campaign_keys(c: &Campaign) -> u64 {
    c.cells.iter().fold(0, |acc, cell| {
        acc ^ CellIdentity {
            experiment: &c.experiment,
            version: &c.version,
            params: &cell.params,
            seed: cell.seed,
        }
        .key()
    })
}

/// What one timed repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// The campaign call, seconds.
    pub wall_s: f64,
    /// Flows attempted.
    pub attempted: u64,
    /// Flows that failed: cell not `Ok`, fleet flow expired, QUIC
    /// download incomplete, or a rerun entry not served intact.
    pub failed: u64,
    /// The campaign fingerprint.
    pub fingerprint: String,
    /// Host ms per cell call, in cell order (every workload but rerun,
    /// whose warm cells are never called).
    pub cell_ms: Vec<f64>,
    /// Human-readable check failures.
    pub problems: Vec<String>,
}

/// Flows of a single-flow grid that produced no completed result.
pub fn failed_flows(run: &FlowGridRun) -> u64 {
    run.stats
        .iter()
        .filter(|s| s.as_ref().is_none_or(|s| !s.fct_secs.is_finite()))
        .count() as u64
}

fn grid_problems(run: &FlowGridRun, rep: &mut Rep) {
    rep.attempted = run.stats.len() as u64;
    rep.failed = failed_flows(run);
    if !run.all_ok() {
        rep.problems.push(format!(
            "{} of {} cells not Ok",
            run.manifest.cells_failed, run.manifest.total_cells
        ));
    }
    rep.fingerprint = run.manifest.fingerprint.clone();
}

/// One timed matrix repetition.
pub fn matrix_rep(seed: u64, opts: &RunnerOpts) -> Rep {
    matrix_rep_over(&PathScenario::matrix(), &matrix_params(seed), opts)
}

/// A timed loss-matrix repetition over any scenarios and parameters.
pub fn matrix_rep_over(scenarios: &[PathScenario], p: &LossParams, opts: &RunnerOpts) -> Rep {
    let cell_ms = Arc::new(Mutex::new(Vec::new()));
    let times = Arc::clone(&cell_ms);
    let batches = loss_batches(scenarios, p);
    let (grid, _) = grid_of("loss", &batches, p.iters, p.seed_base, move |b, seed| {
        let t = Instant::now();
        let out = experiments::run_flow(&b.scn, b.kind, b.size, seed, false);
        times
            .lock()
            .expect("cell timings")
            .push(t.elapsed().as_secs_f64() * 1e3);
        out
    });
    let mut rep = Rep::default();
    let t = Instant::now();
    let run = grid.run(opts);
    rep.wall_s = t.elapsed().as_secs_f64();
    grid_problems(&run, &mut rep);
    rep.cell_ms = std::mem::take(&mut *cell_ms.lock().expect("cell timings"));
    rep
}

/// `fleet_table`'s post-run annotations (one per non-empty bucket),
/// which join the fingerprint.
fn fleet_annotations(manifest: &mut RunManifest, results: &[experiments::FleetStats]) {
    for (i, stats) in results.iter().enumerate() {
        for (bucket, hist) in stats.buckets() {
            annotate(manifest, i, bucket, hist);
        }
    }
}

fn quic_annotations(manifest: &mut RunManifest, results: &[experiments::QuicPacingStats]) {
    for (i, stats) in results.iter().enumerate() {
        for (bucket, hist) in stats.buckets() {
            annotate(manifest, i, bucket, hist);
        }
    }
}

fn annotate(manifest: &mut RunManifest, i: usize, bucket: &str, hist: &simstats::LogHistogram) {
    if hist.count() == 0 {
        return;
    }
    let (p50, p90, p99, p999) = hist.quartet();
    let label = format!("{}/{bucket}", manifest.cells[i].label);
    manifest.annotations.push(FctAnnotation {
        label,
        n: hist.count(),
        p50,
        p90,
        p99,
        p999,
    });
}

/// Run `campaign` on `opts`' executor with every cell call timed into
/// `rep` (`wall_s`, and `cell_ms` in completion order, which is cell
/// order on one worker).
fn run_timed<T, F>(campaign: &Campaign, opts: &RunnerOpts, rep: &mut Rep, f: F) -> CampaignReport<T>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(&simrunner::Cell) -> T + Send + Sync + 'static,
{
    let cell_ms = Arc::new(Mutex::new(Vec::new()));
    let times = Arc::clone(&cell_ms);
    let t = Instant::now();
    let out = campaign.run(&opts.executor(), move |cell| {
        let t = Instant::now();
        let v = f(cell);
        times
            .lock()
            .expect("cell timings")
            .push(t.elapsed().as_secs_f64() * 1e3);
        v
    });
    rep.wall_s = t.elapsed().as_secs_f64();
    rep.cell_ms = std::mem::take(&mut *cell_ms.lock().expect("cell timings"));
    out
}

/// One timed fleet repetition: `fleet_table`'s campaign run through
/// `run_fleet_cell` and annotated the same way, so each cell call is
/// timed here.
pub fn fleet_rep(seed: u64, opts: &RunnerOpts) -> Rep {
    fleet_rep_of(FLEET_FLOWS, seed, opts)
}

/// A timed fleet repetition with `n_flows` arrivals per cell.
pub fn fleet_rep_of(n_flows: u64, seed: u64, opts: &RunnerOpts) -> Rep {
    let (campaign, configs) = fleet_campaign(n_flows, seed);
    let mut rep = Rep {
        attempted: campaign.len() as u64 * n_flows,
        ..Rep::default()
    };
    let out = run_timed(&campaign, opts, &mut rep, move |cell| {
        experiments::run_fleet_cell(&configs[cell.index], cell.seed)
    });
    let mut manifest = out.manifest;
    let results: Vec<experiments::FleetStats> = out.results.into_iter().flatten().collect();
    let completed: u64 = results.iter().map(|r| r.completed).sum();
    let expired: u64 = results.iter().map(|r| r.expired).sum();
    rep.failed = rep.attempted - completed.min(rep.attempted);
    if expired > 0 {
        rep.problems.push(format!("{expired} fleet flows expired"));
    }
    if !manifest.all_ok() {
        rep.problems.push("fleet cells not Ok".into());
    }
    fleet_annotations(&mut manifest, &results);
    rep.fingerprint = manifest.compute_fingerprint();
    rep
}

/// One timed QUIC repetition: `quic_pacing_table`'s campaign run cell by
/// cell through `run_quic_pacing_cell`, so each cell call is timed here.
pub fn quic_rep(seed: u64, opts: &RunnerOpts) -> Rep {
    let (campaign, configs) = quic_pacing_campaign(QUIC_ITERS, &QUIC_SIZES_FULL, seed);
    let mut rep = Rep {
        attempted: campaign.len() as u64 * QUIC_ITERS * QUIC_SIZES_FULL.len() as u64,
        ..Rep::default()
    };
    let out = run_timed(&campaign, opts, &mut rep, move |cell| {
        experiments::run_quic_pacing_cell(&configs[cell.index], cell.seed)
    });
    let mut manifest = out.manifest;
    let results: Vec<experiments::QuicPacingStats> = out.results.into_iter().flatten().collect();
    let completed: u64 = results.iter().map(|r| r.completed).sum();
    let incomplete: u64 = results.iter().map(|r| r.incomplete).sum();
    rep.failed = rep.attempted - completed.min(rep.attempted);
    if incomplete > 0 {
        rep.problems
            .push(format!("{incomplete} QUIC downloads incomplete"));
    }
    if !manifest.all_ok() {
        rep.problems.push("quic cells not Ok".into());
    }
    quic_annotations(&mut manifest, &results);
    rep.fingerprint = manifest.compute_fingerprint();
    rep
}

/// The rerun workload's inputs: fig18's cell identities, each carrying a
/// real `FlowStats` payload from one `run_flow` per controller.
pub struct Rerun {
    batches: Vec<BatchSpec>,
    seed: u64,
    payloads: Arc<[FlowOutcome; 3]>,
    expected: [FlowStats; 3],
}

fn kind_slot(kind: CcKind) -> usize {
    match kind {
        CcKind::Bbr => 0,
        CcKind::Cubic => 1,
        _ => 2,
    }
}

fn flow_stats(o: &FlowOutcome) -> FlowStats {
    FlowStats {
        fct_secs: o.fct_secs(),
        retransmit_rate: o.retransmit_rate,
        segs_sent: o.segs_sent,
        segs_retransmitted: o.segs_retransmitted,
        bottleneck_drops: o.bottleneck_drops,
        counters: o.counters.clone(),
    }
}

impl Rerun {
    /// Generate the payloads for `seed`.
    pub fn new(seed: u64) -> Rerun {
        let scn = fig18_scenarios()[0];
        let payloads = [CcKind::Bbr, CcKind::Cubic, CcKind::CubicSuss]
            .map(|kind| experiments::run_flow(&scn, kind, MB, seed, false));
        Rerun {
            batches: fct_batches(),
            seed,
            expected: [0, 1, 2].map(|i| flow_stats(&payloads[i])),
            payloads: Arc::new(payloads),
        }
    }

    /// The grid; `calls` counts cell computations (cache misses).
    fn grid(&self, calls: Arc<AtomicU64>) -> FlowGrid {
        let payloads = Arc::clone(&self.payloads);
        grid_of(
            "fct_sweep",
            &self.batches,
            RERUN_ITERS,
            self.seed,
            move |b, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                payloads[kind_slot(b.kind)].clone()
            },
        )
        .0
    }

    /// Run one pass and check every cell: a warm pass must serve all of
    /// them from cache, and every result must equal its payload.
    fn pass(&self, opts: &RunnerOpts, warm: bool) -> Rep {
        let calls = Arc::new(AtomicU64::new(0));
        let grid = self.grid(Arc::clone(&calls));
        let mut rep = Rep::default();
        let t = Instant::now();
        let run = grid.run(opts);
        rep.wall_s = t.elapsed().as_secs_f64();
        grid_problems(&run, &mut rep);
        let mut bad = 0u64;
        let mut i = 0usize;
        for b in &self.batches {
            let want = &self.expected[kind_slot(b.kind)];
            for _ in 0..RERUN_ITERS {
                if run.stats[i].as_ref() != Some(want) {
                    bad += 1;
                }
                i += 1;
            }
        }
        rep.failed = rep.failed.max(bad);
        if bad > 0 {
            rep.problems
                .push(format!("{bad} entries not served intact"));
        }
        let computed = calls.load(Ordering::Relaxed);
        if warm && (computed > 0 || run.manifest.cache_hits != run.stats.len()) {
            rep.failed = rep.failed.max(computed);
            rep.problems.push(format!(
                "warm pass computed {computed} cells ({} hits)",
                run.manifest.cache_hits
            ));
        }
        rep
    }

    /// Fill the cache: build the grid and store every entry in a cold
    /// pass.
    pub fn cold(&self, opts: &RunnerOpts) -> Rep {
        self.pass(opts, false)
    }

    /// One timed warm pass against the cache `cold` filled.
    pub fn warm(&self, opts: &RunnerOpts) -> Rep {
        self.pass(opts, true)
    }

    fn ids(&self) -> Vec<(String, u64)> {
        let mut ids = Vec::new();
        for b in &self.batches {
            let params = b.params();
            for seed in self.seed..self.seed + RERUN_ITERS {
                ids.push((params.clone(), seed));
            }
        }
        ids
    }
}

/// One set-up: grid construction and cache-key hashing.
fn setup_once(w: Workload, seed: u64) {
    match w {
        Workload::Matrix => {
            let batches = loss_batches(&PathScenario::matrix(), &matrix_params(seed));
            let (grid, keys) = grid_of("loss", &batches, 8, seed, |b, s| {
                experiments::run_flow(&b.scn, b.kind, b.size, s, false)
            });
            std::hint::black_box((grid.len(), keys));
        }
        Workload::Fleet => {
            std::hint::black_box(campaign_keys(&fleet_campaign(FLEET_FLOWS, seed).0));
        }
        Workload::Quic => {
            let (c, _) = quic_pacing_campaign(QUIC_ITERS, &QUIC_SIZES_FULL, seed);
            std::hint::black_box(campaign_keys(&c));
        }
        Workload::Rerun => {
            let (grid, keys) = grid_of("fct_sweep", &fct_batches(), RERUN_ITERS, seed, |_, _| {
                unreachable!("set-up samples never run a cell")
            });
            std::hint::black_box((grid.len(), keys));
        }
    }
}

/// Host seconds below which one set-up is repeated within a sample: a
/// set-up of a few microseconds is too short to time on its own.
const SETUP_SAMPLE_S: f64 = 0.01;

/// One set-up sample: seconds per set-up, set up as many times as fit
/// in [`SETUP_SAMPLE_S`] (at least once).
pub fn setup_sample(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u32;
    while n == 0 || t0.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        setup_once(w, seed);
        n += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(n)
}

// ---------------------------------------------------------------------------
// Traced repetitions
// ---------------------------------------------------------------------------

/// Which transport a traced cell ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// tcp-sim.
    Tcp,
    /// quic-sim.
    Quic,
}

/// One traced cell.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// Campaign cell label.
    pub label: String,
    /// Controller label.
    pub cc: String,
    /// Flows the cell ran.
    pub flows: u64,
    /// Transport.
    pub transport: Transport,
    /// Its aggregated spans.
    pub span: CellSpan,
}

/// Direct timings of simrunner and serde calls over a workload's entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoTimings {
    /// `Cache::store`, µs per entry.
    pub store_us: f64,
    /// `Cache::load` (with its mtime touch), µs per entry.
    pub load_us: f64,
    /// `serde::to_string` (to_json + render), µs per entry.
    pub render_us: f64,
    /// `Json::parse`, µs per entry.
    pub parse_us: f64,
    /// `RunManifest::write`, ms (median of 5).
    pub manifest_write_ms: f64,
    /// `RunManifest::compute_fingerprint`, ms (median of 5).
    pub fingerprint_ms: f64,
    /// Entries that did not round-trip.
    pub mismatches: u64,
}

/// Everything a traced repetition produced.
#[derive(Debug)]
pub struct TracedRun {
    /// The `Campaign::run` (or `FlowGrid::run`) call, seconds.
    pub campaign_s: f64,
    /// Its manifest, with post-run annotations and a fresh fingerprint.
    pub manifest: RunManifest,
    /// Traced cells in completion order (empty when every cell hit).
    pub cells: Vec<TracedCell>,
    /// All cells' counter snapshots merged.
    pub counters: CounterSnapshot,
    /// Mean peak concurrency and slot-reuse ratio (fleet only).
    pub fleet: Option<(f64, f64)>,
    /// Direct simrunner/serde timings.
    pub io: IoTimings,
    /// Flows that failed.
    pub failed: u64,
}

fn median5(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..5).map(|_| f()).collect();
    crate::stats::median(&xs)
}

/// Time simrunner's cache and manifest calls and serde's JSON calls
/// directly over `values`, filed under `ids` in a scratch cache at `dir`.
pub fn io_timings<T: Serialize + Deserialize + PartialEq>(
    dir: &Path,
    experiment: &str,
    ids: &[(String, u64)],
    values: &[T],
    manifest: &RunManifest,
) -> IoTimings {
    let n = values.len().max(1) as f64;
    let mut io = IoTimings::default();
    let cache = Cache::open(dir, experiment).expect("scratch cache");
    let id = |i: usize| CellIdentity {
        experiment,
        version: CAMPAIGN_VERSION,
        params: &ids[i].0,
        seed: ids[i].1,
    };
    let t = Instant::now();
    for (i, v) in values.iter().enumerate() {
        cache.store(&id(i), v).expect("cache store");
    }
    io.store_us = t.elapsed().as_secs_f64() * 1e6 / n;
    let t = Instant::now();
    let loaded: Vec<Option<T>> = (0..values.len()).map(|i| cache.load(&id(i))).collect();
    io.load_us = t.elapsed().as_secs_f64() * 1e6 / n;
    io.mismatches += loaded
        .iter()
        .zip(values)
        .filter(|(l, v)| l.as_ref() != Some(*v))
        .count() as u64;

    let t = Instant::now();
    let texts: Vec<String> = values.iter().map(serde::to_string).collect();
    io.render_us = t.elapsed().as_secs_f64() * 1e6 / n;
    let t = Instant::now();
    let parsed: Vec<Option<Json>> = texts.iter().map(|s| Json::parse(s)).collect();
    io.parse_us = t.elapsed().as_secs_f64() * 1e6 / n;
    io.mismatches += parsed
        .iter()
        .zip(values)
        .filter(|(j, v)| j.as_ref().and_then(T::from_json).as_ref() != Some(*v))
        .count() as u64;

    let path = dir.join("traced.manifest.json");
    io.manifest_write_ms = median5(|| {
        let t = Instant::now();
        manifest.write(&path).expect("manifest write");
        t.elapsed().as_secs_f64() * 1e3
    });
    io.fingerprint_ms = median5(|| {
        let t = Instant::now();
        std::hint::black_box(manifest.compute_fingerprint());
        t.elapsed().as_secs_f64() * 1e3
    });
    io
}

type CellSink = Arc<Mutex<Vec<TracedCell>>>;

fn take_cells(sink: &CellSink) -> Vec<TracedCell> {
    std::mem::take(&mut *sink.lock().expect("traced cells"))
}

/// One traced matrix repetition.
pub fn matrix_traced(seed: u64, opts: &RunnerOpts, io_dir: &Path) -> TracedRun {
    matrix_traced_over(&PathScenario::matrix(), &matrix_params(seed), opts, io_dir)
}

/// A traced loss-matrix repetition over any scenarios and parameters.
pub fn matrix_traced_over(
    scenarios: &[PathScenario],
    p: &LossParams,
    opts: &RunnerOpts,
    io_dir: &Path,
) -> TracedRun {
    let sink: CellSink = Arc::default();
    let cells = Arc::clone(&sink);
    let batches = loss_batches(scenarios, p);
    let epoch = Instant::now();
    let (grid, _) = grid_of("loss", &batches, p.iters, p.seed_base, move |b, seed| {
        let (out, span) = trace::cell(epoch, || drivers::run_flow(&b.scn, b.kind, b.size, seed));
        cells.lock().expect("traced cells").push(TracedCell {
            label: format!("{}/s{seed}", b.label()),
            cc: b.kind.label(),
            flows: 1,
            transport: Transport::Tcp,
            span,
        });
        out
    });
    let t = Instant::now();
    let run = grid.run(opts);
    let campaign_s = t.elapsed().as_secs_f64();
    let mut counters = CounterSnapshot::default();
    for s in run.stats.iter().flatten() {
        counters.merge(&s.counters);
    }
    let values: Vec<FlowStats> = run.stats.iter().flatten().cloned().collect();
    let ids: Vec<(String, u64)> = batches
        .iter()
        .flat_map(|b| (p.seed_base..p.seed_base + p.iters).map(move |s| (b.params(), s)))
        .collect();
    let io = if values.len() == ids.len() {
        io_timings(io_dir, "loss", &ids, &values, &run.manifest)
    } else {
        IoTimings::default()
    };
    TracedRun {
        campaign_s,
        failed: failed_flows(&run),
        manifest: run.manifest,
        cells: take_cells(&sink),
        counters,
        fleet: None,
        io,
    }
}

fn campaign_ids(c: &Campaign) -> Vec<(String, u64)> {
    c.cells.iter().map(|c| (c.params.clone(), c.seed)).collect()
}

/// One traced fleet repetition.
pub fn fleet_traced(seed: u64, opts: &RunnerOpts, io_dir: &Path) -> TracedRun {
    let (campaign, configs) = fleet_campaign(FLEET_FLOWS, seed);
    let configs = Arc::new(configs);
    let sink: CellSink = Arc::default();
    let (cells, cfgs) = (Arc::clone(&sink), Arc::clone(&configs));
    let epoch = Instant::now();
    let t = Instant::now();
    let out = campaign.run(&opts.executor(), move |cell| {
        let cfg = &cfgs[cell.index];
        let (stats, span) = trace::cell(epoch, || drivers::run_fleet_cell(cfg, cell.seed));
        cells.lock().expect("traced cells").push(TracedCell {
            label: cell.label.clone(),
            cc: cfg.cc.label(),
            flows: stats.spawned,
            transport: Transport::Tcp,
            span,
        });
        stats
    });
    let campaign_s = t.elapsed().as_secs_f64();
    let mut manifest = out.manifest;
    let results: Vec<experiments::FleetStats> = out.results.into_iter().flatten().collect();
    let attempted = campaign.len() as u64 * FLEET_FLOWS;
    let completed: u64 = results.iter().map(|r| r.completed).sum();
    fleet_annotations(&mut manifest, &results);
    manifest.fingerprint = manifest.compute_fingerprint();
    let mut counters = CounterSnapshot::default();
    let (mut peak, mut spawned, mut reused) = (0u64, 0u64, 0u64);
    for r in &results {
        counters.merge(&r.counters);
        peak += r.peak_concurrent;
        spawned += r.spawned;
        reused += r
            .counters
            .get(simtrace::names::FLEET_SLOT_REUSES)
            .unwrap_or(0);
    }
    let n = results.len().max(1) as f64;
    let fleet = Some((
        peak as f64 / n,
        crate::stats::ratio(reused as f64, spawned as f64),
    ));
    let ids = campaign_ids(&campaign);
    let io = if results.len() == ids.len() {
        io_timings(io_dir, &campaign.experiment, &ids, &results, &manifest)
    } else {
        IoTimings::default()
    };
    TracedRun {
        campaign_s,
        manifest,
        cells: take_cells(&sink),
        counters,
        fleet,
        io,
        failed: attempted - completed.min(attempted),
    }
}

/// One traced QUIC repetition.
pub fn quic_traced(seed: u64, opts: &RunnerOpts, io_dir: &Path) -> TracedRun {
    let (campaign, configs) = quic_pacing_campaign(QUIC_ITERS, &QUIC_SIZES_FULL, seed);
    let configs = Arc::new(configs);
    let sink: CellSink = Arc::default();
    let (cells, cfgs) = (Arc::clone(&sink), Arc::clone(&configs));
    let epoch = Instant::now();
    let t = Instant::now();
    let out = campaign.run(&opts.executor(), move |cell| {
        let cfg = &cfgs[cell.index];
        let (stats, span) = trace::cell(epoch, || drivers::run_quic_pacing_cell(cfg, cell.seed));
        cells.lock().expect("traced cells").push(TracedCell {
            label: cell.label.clone(),
            cc: cfg.cc.label(),
            flows: stats.completed + stats.incomplete,
            transport: Transport::Quic,
            span,
        });
        stats
    });
    let campaign_s = t.elapsed().as_secs_f64();
    let mut manifest = out.manifest;
    let results: Vec<experiments::QuicPacingStats> = out.results.into_iter().flatten().collect();
    let attempted = campaign.len() as u64 * QUIC_ITERS * QUIC_SIZES_FULL.len() as u64;
    let completed: u64 = results.iter().map(|r| r.completed).sum();
    quic_annotations(&mut manifest, &results);
    manifest.fingerprint = manifest.compute_fingerprint();
    let mut counters = CounterSnapshot::default();
    for r in &results {
        counters.merge(&r.counters);
    }
    let ids = campaign_ids(&campaign);
    let io = if results.len() == ids.len() {
        io_timings(io_dir, &campaign.experiment, &ids, &results, &manifest)
    } else {
        IoTimings::default()
    };
    TracedRun {
        campaign_s,
        manifest,
        cells: take_cells(&sink),
        counters,
        fleet: None,
        io,
        failed: attempted - completed.min(attempted),
    }
}

/// One traced rerun pass: the warm pass itself (no cell is computed, so
/// no layer below simrunner runs) plus direct cache and JSON timings
/// over all its entries.
pub fn rerun_traced(rerun: &Rerun, opts: &RunnerOpts, io_dir: &Path) -> TracedRun {
    let calls = Arc::new(AtomicU64::new(0));
    let grid = rerun.grid(Arc::clone(&calls));
    let t = Instant::now();
    let run = grid.run(opts);
    let campaign_s = t.elapsed().as_secs_f64();
    let values: Vec<FlowStats> = run.stats.iter().flatten().cloned().collect();
    let ids = rerun.ids();
    let io = if values.len() == ids.len() {
        io_timings(io_dir, "fct_sweep", &ids, &values, &run.manifest)
    } else {
        IoTimings::default()
    };
    TracedRun {
        campaign_s,
        failed: failed_flows(&run).max(calls.load(Ordering::Relaxed)),
        manifest: run.manifest,
        cells: Vec::new(),
        counters: CounterSnapshot::default(),
        fleet: None,
        io,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{LastHop, ServerSite, KB};

    fn scratch(tag: &str) -> Scratch {
        Scratch::new(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp"),
            &format!("test-{tag}"),
        )
        .unwrap()
    }

    fn small() -> (Vec<PathScenario>, LossParams) {
        let scns = vec![
            PathScenario::new(ServerSite::OracleLondon, LastHop::FiveG),
            PathScenario::new(ServerSite::GoogleTokyo, LastHop::WiFi),
        ];
        let p = LossParams {
            sizes: vec![256 * KB],
            iters: 2,
            seed_base: 4,
            buffer_bdp_override: Some(0.5),
        };
        (scns, p)
    }

    #[test]
    fn matrix_grid_fingerprints_like_sweep_matrix() {
        let (scns, p) = small();
        let dir = scratch("matrix");
        let reference = experiments::loss::sweep_matrix(&scns, &p, &RunnerOpts::serial());
        let timed = matrix_rep_over(&scns, &p, &runner_opts(&dir.fresh("timed")));
        let traced = matrix_traced_over(
            &scns,
            &p,
            &runner_opts(&dir.fresh("traced")),
            &dir.fresh("io"),
        );
        assert_eq!(timed.fingerprint, reference.manifest.fingerprint);
        assert_eq!(traced.manifest.fingerprint, reference.manifest.fingerprint);
        assert_eq!(timed.attempted, 12);
        assert_eq!(timed.failed, 0);
        assert_eq!(timed.cell_ms.len(), 12);
        assert_eq!(traced.cells.len(), 12);
        assert_eq!(traced.io.mismatches, 0);
    }

    #[test]
    fn quic_rep_fingerprints_like_quic_pacing_table() {
        let dir = scratch("quic");
        let reference = experiments::quic_pacing_table(
            QUIC_ITERS,
            &QUIC_SIZES_FULL,
            2,
            &runner_opts(&dir.fresh("reference")),
        );
        let timed = quic_rep(2, &runner_opts(&dir.fresh("timed")));
        assert_eq!(timed.fingerprint, reference.manifest.compute_fingerprint());
        assert_eq!((timed.attempted, timed.failed), (432, 0));
        assert_eq!(timed.cell_ms.len(), 12);
    }

    #[test]
    fn fleet_rep_fingerprints_like_fleet_table() {
        let dir = scratch("fleet");
        let reference = experiments::fleet_table(60, 3, &runner_opts(&dir.fresh("reference")));
        let timed = fleet_rep_of(60, 3, &runner_opts(&dir.fresh("timed")));
        assert_eq!(timed.fingerprint, reference.manifest.compute_fingerprint());
        assert_eq!((timed.attempted, timed.failed), (18 * 60, 0));
        assert_eq!(timed.cell_ms.len(), 18);
    }

    #[test]
    fn panicking_cell_counts_as_a_failed_flow() {
        let dir = scratch("panic");
        let (scns, p) = small();
        let batches = loss_batches(&scns[..1], &p);
        let (grid, _) = grid_of("panic", &batches, 1, 1, |b, seed| {
            if b.kind == CcKind::Cubic {
                panic!("injected");
            }
            experiments::run_flow(&b.scn, b.kind, b.size, seed, false)
        });
        let run = grid.run(&runner_opts(dir.path()));
        assert_eq!(run.stats.len(), 3);
        assert_eq!(failed_flows(&run), 1);
        assert!(!run.all_ok());
    }

    #[test]
    fn options_ignore_the_environment() {
        let dir = scratch("opts");
        let opts = runner_opts(dir.path());
        assert_eq!(opts.workers, 1);
        assert!(!opts.progress && !opts.profile);
        assert_eq!(opts.executor, simrunner::ExecSpec::Pool);
        assert!(opts.cache_dir.as_deref().unwrap().starts_with(dir.path()));
        assert!(opts
            .flightrec_dir
            .as_deref()
            .unwrap()
            .starts_with(dir.path()));
    }
}
