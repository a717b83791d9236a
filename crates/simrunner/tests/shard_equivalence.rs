//! Shard-equivalence regression suite: splitting a campaign into N shard
//! runs against a shared cache and merging their manifests must produce
//! results and a manifest fingerprint byte-identical to a single-process
//! run — cold and warm, for any shard count — and a dead, corrupt, or
//! mismatched shard must be recovered at merge time by reassigning its
//! cells through the cache, never by voiding the run.

use simrunner::{
    shard_manifest_path, Campaign, CampaignReport, ExecSpec, RunManifest, RunnerOpts, ShardInfo,
};
use std::path::{Path, PathBuf};

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
/// shard of one split campaign and its merge do.
fn shared_opts(dir: &Path) -> RunnerOpts {
    RunnerOpts::serial()
        .with_cache(dir.join("cache"))
        .with_manifest_stem(dir.join("run"))
}

/// Run every shard `k/shards` in turn (in process, as
/// `scripts/shard_run.sh` does one process per shard), then merge.
fn run_sharded(c: &Campaign, dir: &Path, shards: usize) -> CampaignReport<f64> {
    let opts = shared_opts(dir);
    for index in 0..shards {
        let shard = opts.clone().with_executor(ExecSpec::Shard {
            index,
            total: shards,
        });
        c.run(&shard.executor(), cell_value);
    }
    let merge = opts.with_executor(ExecSpec::MergeShards { shards });
    c.run(&merge.executor(), cell_value)
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
        // Cold: every cell computed by exactly one shard.
        let cold = run_sharded(&c, &dir, shards);
        assert_eq!(cold.manifest.executor, format!("merged({shards} shards)"));
        assert_eq!(cold.manifest.cache_hits, 0, "{shards} shards cold");
        assert_eq!(cold.manifest.cache_misses, c.len());
        assert_eq!(cold.manifest.cells_skipped, 0, "merge covers every cell");
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

    // The per-shard manifests stay on disk next to the merged run and
    // partition the campaign exactly.
    let stem = dir.join("run");
    for k in 0..2usize {
        let m = RunManifest::read(&shard_manifest_path(&stem, k, 2)).expect("shard manifest");
        assert_eq!(m.shard, Some(ShardInfo { index: k, total: 2 }));
        assert_eq!(m.total_cells, c.len());
        let owned = c.len() / 2;
        assert_eq!(m.cells_skipped, c.len() - owned);
        for rec in &m.cells {
            let owns = rec.index % 2 == k;
            assert_eq!(
                rec.status.succeeded(),
                owns,
                "shard {k} cell {}: status {:?}",
                rec.index,
                rec.status
            );
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
    let opts = shared_opts(&dir);

    // Phase 1: only shard 0 runs (the "other machine died" scenario) —
    // its results are in the shared cache, its manifest on disk.
    let shard_opts = opts
        .clone()
        .with_executor(ExecSpec::Shard { index: 0, total: 2 });
    let half = c.run(&shard_opts.executor(), cell_value);
    let owned = c.len() / 2;
    assert_eq!(half.manifest.cache_misses, owned);

    // A merge over the partial state reassigns the missing shard's cells
    // inline instead of recording them dead: the merged run is complete,
    // with the recovery visible in the counters.
    let merge_opts = opts
        .clone()
        .with_executor(ExecSpec::MergeShards { shards: 2 });
    let recovered = c.run(&merge_opts.executor(), cell_value);
    assert!(recovered.all_ok(), "merge must absorb the dead shard");
    assert_eq!(
        recovered.manifest.cells_reassigned,
        (c.len() - owned) as u64,
        "every orphaned cell recomputes inline"
    );
    assert_eq!(recovered.manifest.cells_failed, 0);

    // The recovery rewrote shard 1's manifest, so a later merge (or an
    // external driver) sees a complete shard set on disk.
    let stem = dir.join("run");
    let m1 = RunManifest::read(&shard_manifest_path(&stem, 1, 2)).expect("recovered manifest");
    assert_eq!(m1.shard, Some(ShardInfo { index: 1, total: 2 }));

    // And the recovered run is indistinguishable from a never-killed one.
    let fresh_dir = tempdir("simrunner-shardeq-resume-fresh");
    let fresh = run_sharded(&c, &fresh_dir, 2);
    assert_eq!(recovered.manifest.fingerprint, fresh.manifest.fingerprint);
    assert_eq!(
        recovered.manifest.results_digest,
        fresh.manifest.results_digest
    );
    assert_eq!(render(&recovered.results), render(&fresh.results));
    assert_eq!(fresh.manifest.cells_reassigned, 0);

    // Phase 2: re-running every shard and the merge over the now-warm
    // cache is a pure resume — every cell is a hit, nothing is reassigned.
    let resumed = run_sharded(&c, &dir, 2);
    assert!(resumed.all_ok());
    assert_eq!(resumed.manifest.cache_hits, c.len());
    assert_eq!(resumed.manifest.cells_reassigned, 0);
    assert_eq!(resumed.manifest.fingerprint, fresh.manifest.fingerprint);
    std::fs::remove_dir_all(&fresh_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_shard_manifest_is_quarantined_and_reassigned() {
    // Each case turns shard 1's healthy manifest text into hostile text.
    let hostile: [fn(&str) -> String; 3] = [
        // Truncated JSON.
        |_| "{\"experiment\":\"shard-eq-it\",\"cells\":[tru".to_string(),
        // Nesting deep enough to overflow a recursive parser.
        |_| "[".repeat(100_000),
        // A cell status from when the runner retried panicking cells: no
        // longer a `CellStatus`, so the manifest does not parse.
        |healthy| {
            let old = healthy.replacen("\"status\":\"Ok\"", "\"status\":\"Retried\"", 1);
            assert_ne!(old, healthy, "no Ok cell to rewrite");
            old
        },
    ];
    for (case, corrupt) in hostile.iter().enumerate() {
        let dir = tempdir(&format!("simrunner-shardeq-corrupt-{case}"));
        let c = campaign();
        let healthy = run_sharded(&c, &dir, 2);
        let stem = dir.join("run");

        // Hostile content where shard 1's manifest should be.
        let path = shard_manifest_path(&stem, 1, 2);
        let text = corrupt(&std::fs::read_to_string(&path).unwrap());
        std::fs::write(&path, text).unwrap();

        let merge_opts = shared_opts(&dir).with_executor(ExecSpec::MergeShards { shards: 2 });
        let merged = c.run(&merge_opts.executor(), cell_value);
        assert!(
            merged.all_ok(),
            "corrupt shard manifest must not sink the merge (case {case})"
        );
        assert_eq!(merged.manifest.fingerprint, healthy.manifest.fingerprint);
        // Warm cache: reassignment found every cell cached, so nothing
        // actually recomputed.
        assert_eq!(merged.manifest.cells_reassigned, 0);

        // The hostile file is preserved for forensics, like cache corruption.
        let mut q = path.clone().into_os_string();
        q.push(".quarantine");
        assert!(
            PathBuf::from(&q).exists(),
            "corrupt shard manifest must be quarantined, not deleted (case {case})"
        );
        // The inline reassignment rewrote shard 1's slot with a manifest
        // of its own.
        let rewritten = RunManifest::read(&path).expect("reassigned shard manifest");
        assert_eq!(rewritten.shard, Some(ShardInfo { index: 1, total: 2 }));
        assert!(rewritten.all_ok(), "case {case}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mismatched_campaign_version_shard_is_quarantined_and_reassigned() {
    let dir = tempdir("simrunner-shardeq-version");
    let c = campaign();
    let healthy = run_sharded(&c, &dir, 2);
    let stem = dir.join("run");

    // Shard 0's slot holds a manifest from a different CAMPAIGN_VERSION
    // (an external driver raced an old binary, say).
    let path = shard_manifest_path(&stem, 0, 2);
    let mut stale = RunManifest::read(&path).expect("healthy shard manifest");
    stale.version = "v0-stale".to_string();
    stale.write(&path).expect("rewrite stale manifest");

    let merge_opts = shared_opts(&dir).with_executor(ExecSpec::MergeShards { shards: 2 });
    let merged = c.run(&merge_opts.executor(), cell_value);
    assert!(merged.all_ok());
    assert_eq!(merged.manifest.fingerprint, healthy.manifest.fingerprint);

    let mut q = path.clone().into_os_string();
    q.push(".quarantine");
    assert!(
        PathBuf::from(&q).exists(),
        "version-mismatched shard manifest must be quarantined"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_is_order_insensitive_across_shard_counts() {
    // merge_shards itself is commutative (unit-tested); here: the
    // end-to-end fingerprint is invariant across 1, 2, and 4 shards.
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
