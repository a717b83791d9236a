//! Shard-equivalence regression suite: shard processes sharing one cache,
//! followed by a plain pool run on that cache, must produce results and a
//! manifest fingerprint byte-identical to a single-process run — cold and
//! warm, for any shard count — and after a shard dies half-way, the final
//! run must recompute exactly the cells it never cached.
//!
//! A shard run exits its process, as `scripts/shard_run.sh` expects, so
//! every shard here is this test binary started again as a child that
//! runs only [`shard_process`].

use simrunner::{shard_manifest_path, Campaign, CampaignReport, ExecSpec, RunManifest, RunnerOpts};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `<k>/<N>:<dir>` — tells a child started by [`run_shard`] which shard
/// to run, on the cache and manifest stem under `dir`.
const SHARD_ENV: &str = "SIMRUNNER_SHARD_EQ";

/// A seed- and parameter-sensitive stand-in simulation with uneven cost.
fn fake_sim(seed: u64, rounds: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut acc = 0u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    (acc >> 11) as f64 / (1u64 << 53) as f64
}

fn cell_value(cell: &simrunner::Cell) -> f64 {
    fake_sim(cell.seed, 500 + (cell.index as u64 % 7) * 900)
}

/// The paper-style 28-cell matrix: 7 scenarios × 4 seeds.
fn campaign() -> Campaign {
    let mut c = Campaign::new("shard-eq-it", "v1");
    for scenario in ["a", "b", "c", "d", "e", "f", "g"] {
        for seed in 0..4u64 {
            c.cell(
                format!("{scenario}/seed{seed}"),
                format!("scenario={scenario} seed={seed}"),
                seed,
            );
        }
    }
    c
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn render(results: &[Option<f64>]) -> String {
    results
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{i} {:.17e}\n", v.expect("cell result")))
        .collect()
}

/// Options sharing one cache and manifest stem under `dir`, as every
/// shard of one split campaign and its final run do.
fn shared_opts(dir: &Path) -> RunnerOpts {
    RunnerOpts::serial()
        .with_cache(dir.join("cache"))
        .with_manifest_stem(dir.join("run"))
}

/// Not a test of its own: the body of the shard processes that
/// [`run_shard`] starts. Without [`SHARD_ENV`] it does nothing.
#[test]
#[ignore = "entry point of the shard processes the other tests start"]
fn shard_process() {
    let Ok(spec) = std::env::var(SHARD_ENV) else {
        return;
    };
    let (kn, dir) = spec.split_once(':').expect("<k>/<N>:<dir>");
    let (index, total) = simrunner::parse_shard(kn).expect("shard coordinates");
    let opts = shared_opts(Path::new(dir)).with_executor(ExecSpec::Shard { index, total });
    campaign().run(&opts.executor(), cell_value);
    unreachable!("a shard run exits its process");
}

/// Run shard `index/total` in a child process on `dir`'s cache, which
/// must exit 0.
fn run_shard(dir: &Path, index: usize, total: usize) {
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["shard_process", "--exact", "--ignored", "--test-threads=1"])
        .env(SHARD_ENV, format!("{index}/{total}:{}", dir.display()))
        .output()
        .expect("start shard process");
    assert_eq!(
        out.status.code(),
        Some(0),
        "shard {index}/{total} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The manifest shard `index/total` left under `dir`.
fn shard_manifest(dir: &Path, index: usize, total: usize) -> RunManifest {
    let path = shard_manifest_path(&dir.join("run"), index, total);
    let text = std::fs::read_to_string(&path).expect("shard manifest written");
    serde::from_str(text.trim()).expect("shard manifest parses")
}

/// The plain pool run that finishes a split campaign on `dir`'s cache.
fn final_run(c: &Campaign, dir: &Path) -> CampaignReport<f64> {
    c.run(&shared_opts(dir).executor(), cell_value)
}

/// Run every shard `k/shards` in its own process, one after another as
/// `scripts/shard_run.sh` does, then the final run.
fn run_sharded(c: &Campaign, dir: &Path, shards: usize) -> CampaignReport<f64> {
    for index in 0..shards {
        run_shard(dir, index, shards);
    }
    final_run(c, dir)
}

#[test]
fn sharded_runs_match_single_process_cold_and_warm() {
    let single_dir = tempdir("simrunner-shardeq-single");
    let c = campaign();
    let single_opts = RunnerOpts::serial().with_cache(single_dir.join("cache"));
    let single = c.run(&single_opts.clone().executor(), cell_value);
    assert_eq!(single.manifest.cache_hits, 0);
    assert!(!single.manifest.fingerprint.is_empty());

    for shards in [2usize, 4] {
        let dir = tempdir(&format!("simrunner-shardeq-{shards}"));
        // Cold: every cell computed by exactly one shard, then served to
        // the final run from the shared cache.
        let cold = run_sharded(&c, &dir, shards);
        let computed: usize = (0..shards)
            .map(|k| shard_manifest(&dir, k, shards).cache_misses)
            .sum();
        assert_eq!(computed, c.len(), "{shards} shards cold");
        assert_eq!(cold.manifest.executor, "pool");
        assert_eq!(cold.manifest.cache_hits, c.len(), "{shards} shards cold");
        assert_eq!(
            render(&cold.results),
            render(&single.results),
            "{shards}-shard cold run diverged from single-process"
        );
        assert_eq!(
            cold.manifest.results_digest, single.manifest.results_digest,
            "{shards}-shard results digest diverged"
        );
        assert_eq!(
            cold.manifest.fingerprint, single.manifest.fingerprint,
            "{shards}-shard manifest fingerprint diverged from single-process"
        );

        // Warm: every shard serves its slice from the shared cache.
        let warm = run_sharded(&c, &dir, shards);
        let hits: usize = (0..shards)
            .map(|k| shard_manifest(&dir, k, shards).cache_hits)
            .sum();
        assert_eq!(hits, c.len(), "{shards} shards warm");
        assert_eq!(warm.manifest.cache_hits, c.len(), "{shards} shards warm");
        assert_eq!(warm.manifest.fingerprint, single.manifest.fingerprint);
        assert_eq!(render(&warm.results), render(&single.results));

        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&single_dir).ok();
}

#[test]
fn shard_manifests_carry_ownership_and_merge_covers_everything() {
    let dir = tempdir("simrunner-shardeq-ownership");
    let c = campaign();
    let out = run_sharded(&c, &dir, 2);
    assert!(out.all_ok());
    assert_eq!(
        out.manifest.cells_skipped, 0,
        "the final run covers every cell"
    );

    // The per-shard manifests stay on disk and partition the campaign
    // exactly: each marks the cells it does not own `Skipped`.
    for k in 0..2usize {
        let m = shard_manifest(&dir, k, 2);
        assert_eq!(m.executor, format!("shard {k}/2"));
        assert_eq!(m.total_cells, c.len());
        let owned = c.len() / 2;
        assert_eq!(m.cells_skipped, c.len() - owned);
        for rec in &m.cells {
            let want = if rec.index % 2 == k {
                simrunner::CellStatus::Ok
            } else {
                simrunner::CellStatus::Skipped
            };
            assert_eq!(rec.status, want, "shard {k} cell {}", rec.index);
        }
    }
    // A split run leaves no scratch behind: next to the shared cache,
    // the shard manifests above are the only files.
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(
        left,
        [
            "cache",
            "run.shard0of2.manifest.json",
            "run.shard1of2.manifest.json"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_shard_is_reassigned_at_merge_time() {
    let dir = tempdir("simrunner-shardeq-resume");
    let c = campaign();

    // Shard 0/2 finishes; shard 1/2 dies half-way. Shard 1/4 caches
    // exactly half of shard 1/2's cells and stands in for that run.
    run_shard(&dir, 0, 2);
    run_shard(&dir, 1, 4);

    // The final run serves both shards' cells from the cache and
    // recomputes only the 7 orphans.
    let recovered = final_run(&c, &dir);
    assert!(
        recovered.all_ok(),
        "the final run must absorb the dead shard"
    );
    assert_eq!(recovered.manifest.cache_hits, c.len() / 2 + c.len() / 4);
    assert_eq!(recovered.manifest.cache_misses, c.len() / 4);

    // And the recovered run is indistinguishable from a never-killed one.
    let fresh_dir = tempdir("simrunner-shardeq-resume-fresh");
    let fresh = run_sharded(&c, &fresh_dir, 2);
    assert_eq!(recovered.manifest.fingerprint, fresh.manifest.fingerprint);
    assert_eq!(
        recovered.manifest.results_digest,
        fresh.manifest.results_digest
    );
    assert_eq!(render(&recovered.results), render(&fresh.results));

    // Running it again is a pure resume: every cell is a hit.
    let resumed = final_run(&c, &dir);
    assert_eq!(resumed.manifest.cache_hits, c.len());
    assert_eq!(resumed.manifest.fingerprint, fresh.manifest.fingerprint);
    std::fs::remove_dir_all(&fresh_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_is_order_insensitive_across_shard_counts() {
    // The fingerprint of the final run is invariant across 1, 2 and 4
    // shards.
    let c = campaign();
    let mut prints = Vec::new();
    for shards in [1usize, 2, 4] {
        let dir = tempdir(&format!("simrunner-shardeq-orderins-{shards}"));
        let out = run_sharded(&c, &dir, shards);
        prints.push(out.manifest.fingerprint.clone());
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[1], prints[2]);
}
