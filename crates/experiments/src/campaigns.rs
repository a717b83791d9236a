//! Campaign adapters: run experiment grids through [`simrunner`].
//!
//! Every FCT/loss experiment is a grid of independent single-flow
//! simulations — (scenario × congestion controller × flow size × seed).
//! [`FlowGrid`] expands such a grid into one [`simrunner::Campaign`] so
//! all cells shard across the worker pool together and memoize in the
//! shared result cache, then hands back [`Batch`] handles for in-order
//! aggregation.

use crate::runner::{run_flow, FlowOutcome};
use cc_algos::CcKind;
use serde::{Deserialize, Serialize};
use simrunner::{RunManifest, RunnerOpts};
use simstats::Summary;
use std::sync::Arc;
use workload::PathScenario;

/// Version tag stamped into every experiment campaign's cache identity.
///
/// Bump whenever a code change alters what a cached cell would contain:
/// simulator physics, congestion-controller behaviour, experiment logic,
/// or the [`FlowStats`] encoding. Stale entries then miss instead of
/// silently serving results from the old code.
pub const CAMPAIGN_VERSION: &str = "v2";

/// The per-flow measurements a campaign cell persists.
///
/// A deliberately plain subset of [`FlowOutcome`]: scalar fields only, no
/// traces, so entries stay small and the JSON round-trip is exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Receiver-side FCT in seconds (NaN if the flow never completed).
    pub fct_secs: f64,
    /// Retransmitted / sent segments (the loss experiments' metric).
    pub retransmit_rate: f64,
    /// Data segments sent, including retransmissions.
    pub segs_sent: u64,
    /// Retransmitted segments.
    pub segs_retransmitted: u64,
    /// Packets dropped at the bottleneck queue (ground truth).
    pub bottleneck_drops: u64,
    /// Simulation-wide metric snapshot at flow end (see `simtrace::names`).
    /// Merging these across cells is commutative, so campaign-level totals
    /// are identical at any worker count.
    pub counters: simtrace::CounterSnapshot,
}

impl FlowStats {
    fn of(o: &FlowOutcome) -> FlowStats {
        FlowStats {
            fct_secs: o.fct_secs(),
            retransmit_rate: o.retransmit_rate,
            segs_sent: o.segs_sent,
            segs_retransmitted: o.segs_retransmitted,
            bottleneck_drops: o.bottleneck_drops,
            counters: o.counters.clone(),
        }
    }
}

/// A contiguous run of cells queued by one [`FlowGrid::batch`] call —
/// the handle used to aggregate those cells after the grid has run.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    start: usize,
    len: usize,
}

/// The simulation run backing one grid cell: seed in, outcome out.
///
/// Shared (`Arc`) across a batch's cells; must be `Send + Sync` so the
/// worker pool can execute cells concurrently.
type CellRunner = Arc<dyn Fn(u64) -> FlowOutcome + Send + Sync>;

/// A grid of independent single-flow simulations, executed as one
/// campaign.
pub struct FlowGrid {
    campaign: simrunner::Campaign,
    runners: Vec<CellRunner>,
}

impl FlowGrid {
    /// Start an empty grid under the given experiment id (the cache
    /// namespace and manifest header).
    pub fn new(experiment: &str) -> FlowGrid {
        FlowGrid {
            campaign: simrunner::Campaign::new(experiment, CAMPAIGN_VERSION),
            runners: Vec::new(),
        }
    }

    /// Queue `iters` seeded repetitions of one (scenario, cc, size)
    /// measurement. The cell identity hashes the scenario's
    /// *field values* ([`PathScenario::canonical_params`]), so two
    /// scenarios sharing a name but differing in any physics parameter
    /// never alias in the cache.
    pub fn batch(
        &mut self,
        scenario: &PathScenario,
        kind: CcKind,
        size: u64,
        iters: u64,
        seed_base: u64,
    ) -> Batch {
        let scn = *scenario;
        self.batch_fn(
            &format!("{}/{}/{}B", scenario.id(), kind.label(), size),
            &format!(
                "{} cc={} size={size}",
                scenario.canonical_params(),
                kind.label()
            ),
            iters,
            seed_base,
            move |seed| run_flow(&scn, kind, size, seed, false),
        )
    }

    /// Queue `iters` seeded repetitions of an arbitrary single-simulation
    /// experiment — custom topologies, qdiscs, rate schedules, bespoke
    /// controllers — one `run(seed)` call per cell.
    ///
    /// `params` joins the cache identity, so it must encode **every**
    /// input that influences `run`'s result besides the seed (scenario
    /// physics, controller, flow size, qdisc, cross-traffic load, …);
    /// under-encoding aliases distinct experiments in the cache.
    /// `label_prefix` gets `/s<seed>` appended per cell for progress lines
    /// and manifests.
    pub fn batch_fn(
        &mut self,
        label_prefix: &str,
        params: &str,
        iters: u64,
        seed_base: u64,
        run: impl Fn(u64) -> FlowOutcome + Send + Sync + 'static,
    ) -> Batch {
        let runner: CellRunner = Arc::new(run);
        let start = self.campaign.len();
        for i in 0..iters {
            let seed = seed_base + i;
            self.campaign
                .cell(format!("{label_prefix}/s{seed}"), params, seed);
            self.runners.push(Arc::clone(&runner));
        }
        Batch {
            start,
            len: iters as usize,
        }
    }

    /// Total cells queued so far.
    pub fn len(&self) -> usize {
        self.campaign.len()
    }

    /// Whether no cells have been queued.
    pub fn is_empty(&self) -> bool {
        self.campaign.is_empty()
    }

    /// Execute every queued cell on the executor selected by `opts`
    /// (the pool by default; one shard of a split campaign via
    /// [`simrunner::ExecSpec`], which a bench binary's `--shard K/N`
    /// selects).
    ///
    /// Failure handling follows `opts.on_failure`: under the default
    /// raise policy any terminal cell failure panics with the cell's
    /// label (a panic in a clean-path figure is a bug worth crashing
    /// on); under [`RunnerOpts::record_failures`] the grid always
    /// completes — a panicking cell is recorded, a hung cell is abandoned
    /// by the wall-clock watchdog, and failed cells come back as `None`
    /// with their [`simrunner::CellStatus`] in the manifest.
    /// Chaos campaigns use the record policy.
    pub fn run(self, opts: &RunnerOpts) -> FlowGridRun {
        let FlowGrid { campaign, runners } = self;
        let out = campaign.run(&opts.executor(), move |cell| {
            FlowStats::of(&runners[cell.index](cell.seed))
        });
        FlowGridRun {
            stats: out.results,
            manifest: out.manifest,
        }
    }
}

/// A completed [`FlowGrid`] run: per-cell stats in campaign order plus
/// the run manifest. Failed cells (possible only under
/// [`RunnerOpts::record_failures`]) are `None`.
#[derive(Debug)]
pub struct FlowGridRun {
    /// Per-cell flow stats, in queue order; `None` for cells that
    /// panicked or were abandoned by the watchdog
    /// (record policy only — the default policy panics instead).
    pub stats: Vec<Option<FlowStats>>,
    /// The run's manifest (workers, wall time, cache hits, per-cell
    /// records, resilience totals).
    pub manifest: RunManifest,
}

impl FlowGridRun {
    /// Whether every cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.manifest.all_ok() && self.manifest.cells_skipped == 0
    }

    /// Aggregate the surviving cells of one batch through an extractor,
    /// dropping failed cells and non-finite samples (flows that never
    /// completed). `None` when every cell of the batch failed or
    /// produced non-finite values.
    pub fn summary(&self, b: Batch, f: impl Fn(&FlowStats) -> f64) -> Option<Summary> {
        Summary::of_indexed(
            (b.start..b.start + b.len)
                .filter_map(|i| self.stats[i].as_ref().map(|s| (i, f(s))))
                .filter(|&(_, v)| v.is_finite())
                .collect(),
        )
    }

    /// FCT summary of a batch.
    ///
    /// # Panics
    /// Panics if no iteration of the batch completed.
    pub fn fct(&self, b: Batch) -> Summary {
        self.try_fct(b).expect("all iterations failed")
    }

    /// FCT summary of a batch's surviving cells, `None` when the whole
    /// batch failed — the non-panicking variant for chaos campaigns.
    pub fn try_fct(&self, b: Batch) -> Option<Summary> {
        self.summary(b, |s| s.fct_secs)
    }

    /// Retransmission-rate summary of a batch.
    ///
    /// # Panics
    /// Panics if the batch is empty or fully failed.
    pub fn retransmit_rate(&self, b: Batch) -> Summary {
        self.summary(b, |s| s.retransmit_rate).expect("empty batch")
    }

    /// The per-cell stats of one batch, in seed order (`None` = failed).
    pub fn batch_stats(&self, b: Batch) -> &[Option<FlowStats>] {
        &self.stats[b.start..b.start + b.len]
    }

    /// How many cells of a batch produced a result.
    pub fn survivors(&self, b: Batch) -> usize {
        (b.start..b.start + b.len)
            .filter(|&i| self.stats[i].is_some())
            .count()
    }

    /// Mean of one registry counter (see `simtrace::names`) across a
    /// batch's surviving cells; cells whose snapshot lacks the counter
    /// contribute 0, and a fully failed batch reports 0.
    pub fn counter_mean(&self, b: Batch, name: &str) -> f64 {
        let n = self.survivors(b);
        if n == 0 {
            return 0.0;
        }
        let sum: u64 = (b.start..b.start + b.len)
            .filter_map(|i| self.stats[i].as_ref())
            .map(|s| s.counters.get(name).unwrap_or(0))
            .sum();
        sum as f64 / n as f64
    }

    /// Merge the surviving cells' counter snapshots into campaign-wide
    /// totals (counters add, gauges keep their max). Deterministic across
    /// worker counts because cells are merged in campaign order.
    pub fn counters_total(&self) -> simtrace::CounterSnapshot {
        let mut total = simtrace::CounterSnapshot::default();
        for s in self.stats.iter().flatten() {
            total.merge(&s.counters);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{LastHop, ServerSite, KB};

    #[test]
    fn grid_cells_have_value_bearing_identities() {
        let scn = PathScenario::new(ServerSite::NzCampus, LastHop::Wired);
        let mut grid = FlowGrid::new("unit");
        let b = grid.batch(&scn, CcKind::Cubic, 64 * KB, 3, 10);
        assert_eq!(grid.len(), 3);
        let cells = &grid.campaign.cells;
        assert_eq!(cells[0].seed, 10);
        assert_eq!(cells[2].seed, 12);
        assert!(cells[0].params.contains("site=nz-campus"));
        assert!(cells[0].params.contains("cc=cubic"));
        assert!(cells[0].params.contains(&format!("size={}", 64 * KB)));
        // Same params, different seeds: identity differs only by seed.
        assert_eq!(cells[0].params, cells[1].params);
        let run = grid.run(&RunnerOpts::serial());
        let fct = run.fct(b);
        assert_eq!(fct.n, 3);
        assert!(fct.mean.is_finite() && fct.mean > 0.0);
        assert_eq!(run.manifest.total_cells, 3);
    }
}
