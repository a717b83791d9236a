//! Result-cache integration tests: identity discrimination and resilience
//! against damaged entries.

use simrunner::{Cache, CellIdentity};
use std::fs;
use std::path::PathBuf;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn ident<'a>(params: &'a str, seed: u64, version: &'a str) -> CellIdentity<'a> {
    CellIdentity {
        experiment: "cache-it",
        version,
        params,
        seed,
    }
}

#[test]
fn hit_on_identical_params() {
    let dir = tempdir("simrunner-cache-hit");
    let cache = Cache::open(&dir, "cache-it").unwrap();
    let id = ident("size=2MB rtt=188ms", 7, "v1");
    cache.store(&id, &1.25f64).unwrap();
    assert_eq!(cache.load::<f64>(&id), Some(1.25));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn miss_on_changed_seed_param_or_version() {
    let dir = tempdir("simrunner-cache-miss");
    let cache = Cache::open(&dir, "cache-it").unwrap();
    cache.store(&ident("size=2MB", 7, "v1"), &1.25f64).unwrap();

    assert_eq!(
        cache.load::<f64>(&ident("size=2MB", 8, "v1")),
        None,
        "seed change must miss"
    );
    assert_eq!(
        cache.load::<f64>(&ident("size=4MB", 7, "v1")),
        None,
        "param change must miss"
    );
    assert_eq!(
        cache.load::<f64>(&ident("size=2MB", 7, "v2")),
        None,
        "version change must miss"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_entry_is_a_miss_and_recoverable() {
    let dir = tempdir("simrunner-cache-corrupt");
    let cache = Cache::open(&dir, "cache-it").unwrap();
    let id = ident("size=2MB", 7, "v1");
    cache.store(&id, &1.25f64).unwrap();
    let entry = cache.entry_path(&id);
    assert!(entry.exists());

    // Truncate mid-JSON: load must degrade to a miss, not a panic.
    let full = fs::read_to_string(&entry).unwrap();
    fs::write(&entry, &full[..full.len() / 2]).unwrap();
    assert_eq!(cache.load::<f64>(&id), None, "truncated entry must miss");

    // Garbage bytes: same story.
    fs::write(&entry, b"\x00\xff not json at all").unwrap();
    assert_eq!(cache.load::<f64>(&id), None, "garbage entry must miss");

    // Nesting deep enough to overflow a recursive parser: a miss, and the
    // entry is moved aside rather than read again.
    fs::write(&entry, "[".repeat(100_000)).unwrap();
    assert_eq!(
        cache.load::<f64>(&id),
        None,
        "deeply nested entry must miss"
    );
    assert!(!entry.exists());
    assert!(entry.with_extension("quarantine").exists());

    // A store over the damaged entry heals it.
    cache.store(&id, &2.5f64).unwrap();
    assert_eq!(cache.load::<f64>(&id), Some(2.5));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn type_confusion_is_a_miss() {
    let dir = tempdir("simrunner-cache-type");
    let cache = Cache::open(&dir, "cache-it").unwrap();
    let id = ident("size=2MB", 7, "v1");
    cache.store(&id, &vec![1.0f64, 2.0]).unwrap();
    // Reading the entry back as a different shape must fail cleanly.
    assert_eq!(cache.load::<f64>(&id), None);
    fs::remove_dir_all(&dir).ok();
}
