//! The determinism regression suite: a campaign's aggregated output must be
//! byte-identical no matter how many workers run it, and no matter whether
//! results come from the cache or from live computation.

use simrunner::{Campaign, RunnerOpts};

/// A deliberately seed-sensitive "simulation": a small xorshift stream
/// reduced to a float, with per-cell cost that varies so that different
/// worker counts interleave completions differently.
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

fn campaign() -> Campaign {
    let mut c = Campaign::new("determinism-it", "v1");
    for scenario in ["a", "b", "c", "d"] {
        for seed in 0..8u64 {
            c.cell(
                format!("{scenario}/seed{seed}"),
                format!("scenario={scenario} seed={seed}"),
                seed,
            );
        }
    }
    c
}

/// Render results the way an experiment writer would: a stable text report.
fn render(results: &[f64]) -> String {
    results
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{i} {v:.17e}\n"))
        .collect()
}

#[test]
fn one_vs_many_workers_byte_identical() {
    let c = campaign();
    let run = |workers: usize| {
        let out = c.run(
            &RunnerOpts::default().with_workers(workers).executor(),
            |cell| {
                // Uneven cost: cells finish out of order on multi-worker runs.
                fake_sim(cell.seed, 1_000 + (cell.index as u64 % 5) * 7_000)
            },
        );
        render(&out.expect_all())
    };
    let serial = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(
            serial,
            run(workers),
            "aggregated output must not depend on worker count ({workers})"
        );
    }
}

#[test]
fn cached_rerun_is_byte_identical_and_mostly_hits() {
    let dir = tempdir("simrunner-det-cache");
    let c = campaign();
    let opts = RunnerOpts::default().with_workers(4).with_cache(&dir);

    let cold = c.run(&opts.executor(), |cell| fake_sim(cell.seed, 5_000));
    assert_eq!(cold.manifest.cache_hits, 0);
    assert_eq!(cold.manifest.cache_misses, c.len());

    let warm = c.run(&opts.executor(), |cell| fake_sim(cell.seed, 5_000));
    assert!(
        warm.manifest.hit_rate() >= 0.9,
        "second run should be >=90% cached, got {:.0}%",
        warm.manifest.hit_rate() * 100.0
    );
    assert_eq!(
        render(&cold.expect_all()),
        render(&warm.expect_all()),
        "cache round-trip altered results"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn force_cold_recomputes_but_matches() {
    let dir = tempdir("simrunner-det-cold");
    let c = campaign();
    let opts = RunnerOpts::default().with_workers(2).with_cache(&dir);
    let first = c.run(&opts.executor(), |cell| fake_sim(cell.seed, 2_000));

    let mut cold_opts = opts.clone();
    cold_opts.force_cold = true;
    let second = c.run(&cold_opts.executor(), |cell| fake_sim(cell.seed, 2_000));
    assert_eq!(second.manifest.cache_hits, 0, "force_cold must not read");
    assert_eq!(render(&first.expect_all()), render(&second.expect_all()));

    std::fs::remove_dir_all(&dir).ok();
}

/// Scope annotations come only from computed cells, so a warm rerun has
/// none; the fingerprint must not depend on that.
#[test]
fn fingerprint_is_independent_of_cache_temperature() {
    let dir = tempdir("simrunner-det-scope");
    let c = campaign();
    let opts = RunnerOpts::default().with_workers(2).with_cache(&dir);
    let run = || {
        c.run(&opts.executor(), |cell| {
            simtrace::runtime::add_scope_annotation(simtrace::ScopeAnnotation {
                label: format!("scope/{}/queue_depth", cell.label),
                n: 10 + cell.seed,
                p50: 0.001,
                p90: 0.002,
                p99: 0.003,
                p999: 0.004,
            });
            fake_sim(cell.seed, 1_000)
        })
    };
    let cold = run();
    let warm = run();
    assert_eq!(cold.manifest.scope_annotations.len(), c.len());
    assert_eq!(warm.manifest.cache_hits, c.len());
    assert!(warm.manifest.scope_annotations.is_empty());
    assert_eq!(
        cold.manifest.compute_fingerprint(),
        warm.manifest.compute_fingerprint(),
        "a warm rerun must fingerprint like the cold run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest cell records stay in campaign order with the right labels, so
/// downstream tooling can join them against rendered results by line.
#[test]
fn manifest_records_follow_campaign_order() {
    let c = campaign();
    let out = c.run(&RunnerOpts::default().with_workers(3).executor(), |cell| {
        fake_sim(cell.seed, 1_000)
    });
    assert_eq!(out.manifest.cells.len(), c.len());
    for (i, rec) in out.manifest.cells.iter().enumerate() {
        assert_eq!(rec.index, i);
        assert_eq!(rec.label, c.cells[i].label);
        assert_eq!(rec.seed, c.cells[i].seed);
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
