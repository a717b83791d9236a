//! Content-addressed result cache.
//!
//! Each cell result lives in its own file under
//! `<cache_dir>/<experiment>/<key>.json`, where `key` is the FNV-1a hash
//! of (experiment id, version tag, canonical cell params, seed). Entries
//! embed that identity alongside the value, so a load verifies it matches
//! before trusting the payload — this catches hash collisions, stale
//! directories, and hand-edited files. Any unreadable, unparsable, or
//! mismatched entry is treated as a miss; the next store overwrites it.
//!
//! Writes go through a temp file + rename so a crash mid-write never
//! leaves a truncated entry under the final name.
//!
//! Corruption is never trusted and never silently destroyed: an entry
//! that exists but fails to parse (truncated by a crash, hand-edited,
//! bit-rotted) is renamed to `<key>.quarantine` — preserved for
//! post-mortem, off the hot path, counted via
//! [`Cache::quarantined_count`] (`runner.cache_quarantined` in the
//! metric catalogue). A *mismatched* identity under the same key is a
//! plain miss, not corruption: it is a hash collision or a stale slot,
//! and the next store legitimately claims it.
//!
//! The cache is unbounded and nothing evicts from it: an entry's mtime is
//! the time it was written, and [`Cache::load`] never writes. Quarantined
//! files stay until someone deletes them.

use crate::fnv1a64;
use serde::{Deserialize, Reader, Serialize};
use std::borrow::Cow;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The identity under which a cell result is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellIdentity<'a> {
    /// Experiment id (e.g. `fct_sweep`).
    pub experiment: &'a str,
    /// Code-relevant version tag; bump to invalidate old results.
    pub version: &'a str,
    /// Canonical parameter string of the cell.
    pub params: &'a str,
    /// The cell's seed.
    pub seed: u64,
}

impl CellIdentity<'_> {
    /// The stable content hash this identity is filed under.
    pub fn key(&self) -> u64 {
        let mut buf =
            Vec::with_capacity(self.experiment.len() + self.version.len() + self.params.len() + 27);
        buf.extend_from_slice(self.experiment.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.version.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.params.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        fnv1a64(&buf)
    }
}

/// An open per-experiment cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    quarantined: Arc<AtomicU64>,
}

impl Cache {
    /// Open (creating if needed) the cache for `experiment` under `root`.
    pub fn open(root: &Path, experiment: &str) -> io::Result<Cache> {
        let dir = root.join(experiment);
        fs::create_dir_all(&dir)?;
        Ok(Cache {
            dir,
            quarantined: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Corrupt entries quarantined by this handle (and its clones) so far.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Move a corrupt entry aside (best effort) and count it. The rename
    /// keeps the bytes for post-mortem while freeing the slot for the
    /// next store.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let _ = fs::rename(path, path.with_extension("quarantine"));
    }

    /// The directory entries are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for_key(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// The file an identity's entry is (or would be) stored in.
    pub fn entry_path(&self, id: &CellIdentity<'_>) -> PathBuf {
        self.path_for_key(id.key())
    }

    /// Load a cached value, or `None` on any miss/corruption/mismatch.
    /// A hit only reads the entry; a corrupt entry is quarantined.
    ///
    /// One validating pass over the entry decodes the identity in place
    /// and finds the value's text; the value is decoded only once the
    /// identity matches.
    pub fn load<T: Deserialize>(&self, id: &CellIdentity<'_>) -> Option<T> {
        let path = self.path_for_key(id.key());
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            // Absent is the normal miss; any other read error (perms,
            // I/O) degrades to a miss without touching the file.
            Err(_) => return None,
        };
        // Entry present but structurally broken, or its identity is
        // missing or mistyped → quarantine, miss.
        let Some(entry) = Entry::scan(&text) else {
            self.quarantine(&path);
            return None;
        };
        if entry.experiment != id.experiment
            || entry.version != id.version
            || entry.params != id.params
            || entry.seed != id.seed
        {
            // Collision or stale slot: a legitimate miss, next store
            // overwrites it.
            return None;
        }
        let value = entry.value.and_then(serde::from_str::<T>);
        if value.is_none() {
            // Identity matches but the payload is absent or doesn't
            // decode: the entry is corrupt for exactly this reader.
            self.quarantine(&path);
        }
        value
    }

    /// Store a value under its identity (overwrites any previous entry).
    pub fn store<T: Serialize>(&self, id: &CellIdentity<'_>, value: &T) -> io::Result<()> {
        let mut text = String::with_capacity(256);
        text.push_str("{\"experiment\":");
        id.experiment.write_json(&mut text);
        text.push_str(",\"version\":");
        id.version.write_json(&mut text);
        text.push_str(",\"params\":");
        id.params.write_json(&mut text);
        text.push_str(",\"seed\":");
        id.seed.write_json(&mut text);
        text.push_str(",\"value\":");
        value.write_json(&mut text);
        text.push('}');
        let path = self.path_for_key(id.key());
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)
    }
}

/// A syntactically valid entry with a well-typed identity: the first
/// occurrence of each identity key, and the text of the first `value`.
struct Entry<'a> {
    experiment: Cow<'a, str>,
    version: Cow<'a, str>,
    params: Cow<'a, str>,
    seed: u64,
    value: Option<&'a str>,
}

impl<'a> Entry<'a> {
    /// Validate the whole entry in one pass; `None` if it is not JSON,
    /// not an object, or lacks a well-typed identity field.
    fn scan(text: &'a str) -> Option<Entry<'a>> {
        // Outer `Option`: key seen; inner: its value had the right type.
        let (mut experiment, mut version, mut params, mut seed, mut value) =
            (None, None, None, None, None);
        let mut r = Reader::new(text);
        r.begin_obj()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "experiment" if experiment.is_none() => experiment = Some(text_field(&mut r)?),
                "version" if version.is_none() => version = Some(text_field(&mut r)?),
                "params" if params.is_none() => params = Some(text_field(&mut r)?),
                "seed" if seed.is_none() => seed = Some(serde::from_str::<u64>(r.skip()?)),
                "value" if value.is_none() => value = Some(r.skip()?),
                _ => {
                    r.skip()?;
                }
            }
        }
        r.end()?;
        Some(Entry {
            experiment: experiment??,
            version: version??,
            params: params??,
            seed: seed??,
            value,
        })
    }
}

/// The next value as a string, or `Some(None)` (skipped, still
/// validated) if it is another kind of value.
fn text_field<'a>(r: &mut Reader<'a>) -> Option<Option<Cow<'a, str>>> {
    if r.peek()? == b'"' {
        r.str().map(Some)
    } else {
        r.skip().map(|_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "simrunner-cache-unit-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_separate_every_identity_axis() {
        let base = CellIdentity {
            experiment: "e",
            version: "v1",
            params: "a=1",
            seed: 7,
        };
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.version = "v2";
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.params = "a=2";
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.experiment = "f";
        assert_ne!(base.key(), other.key());
        assert_eq!(base.key(), base.clone().key());
    }

    #[test]
    fn roundtrip_and_miss() {
        let root = scratch("roundtrip");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "size=1",
            seed: 3,
        };
        assert_eq!(cache.load::<f64>(&id), None);
        cache.store(&id, &1.25f64).unwrap();
        assert_eq!(cache.load::<f64>(&id), Some(1.25));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn load_leaves_the_entry_untouched() {
        let root = scratch("read-only");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 9,
        };
        cache.store(&id, &1.0f64).unwrap();
        let path = cache.entry_path(&id);
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1);
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(cache.load::<f64>(&id), Some(1.0));
        assert_eq!(
            fs::read(&path).unwrap(),
            bytes,
            "a hit must not rewrite the entry"
        );
        assert_eq!(
            fs::metadata(&path).unwrap().modified().unwrap(),
            old,
            "a hit must not touch the entry's mtime"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_trusted() {
        let root = scratch("quarantine");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 5,
        };
        cache.store(&id, &3.5f64).unwrap();
        let path = cache.entry_path(&id);
        // Truncate mid-entry, as a crash during a non-atomic writer would.
        fs::write(&path, "{\"experiment\":\"exp\",\"ver").unwrap();
        assert_eq!(cache.load::<f64>(&id), None, "corruption must miss");
        assert_eq!(cache.quarantined_count(), 1);
        assert!(!path.exists(), "corrupt entry must leave the hot slot");
        assert!(
            path.with_extension("quarantine").exists(),
            "corrupt bytes must be preserved for post-mortem"
        );
        // The slot is free again: a store and reload work normally.
        cache.store(&id, &4.5f64).unwrap();
        assert_eq!(cache.load::<f64>(&id), Some(4.5));
        assert_eq!(cache.quarantined_count(), 1);
        // A value that no longer decodes as the expected type is also
        // corruption (e.g. an encoding change without a version bump).
        fs::write(
            &path,
            "{\"experiment\":\"exp\",\"version\":\"v1\",\"params\":\"p\",\
             \"seed\":5,\"value\":\"not-a-float\"}",
        )
        .unwrap();
        assert_eq!(cache.load::<f64>(&id), None);
        assert_eq!(cache.quarantined_count(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mismatched_identity_under_same_key_is_a_miss() {
        // Forge a collision by writing an entry file whose embedded
        // identity differs from what the reader expects.
        let root = scratch("forge");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 1,
        };
        cache.store(&id, &2.0f64).unwrap();
        let mut fake = id.clone();
        fake.params = "q";
        // Copy the real entry over the fake identity's slot.
        fs::copy(
            cache.dir().join(format!("{:016x}.json", id.key())),
            cache.dir().join(format!("{:016x}.json", fake.key())),
        )
        .unwrap();
        assert_eq!(
            cache.load::<f64>(&fake),
            None,
            "embedded identity must gate the hit"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
