//! Content-addressed result cache.
//!
//! Each cell result lives in its own file under
//! `<cache_dir>/<experiment>/<key>.json`, where `key` is the FNV-1a hash
//! of (experiment id, version tag, canonical cell params, seed). Entries
//! embed that identity alongside the value, so a load verifies it matches
//! before trusting the payload — this catches hash collisions, stale
//! directories, and hand-edited files. An entry that cannot be trusted
//! is a miss, and the next store takes its slot.
//!
//! Writes go through a temp file + rename so a crash mid-write never
//! leaves a truncated entry under the final name.
//!
//! Corruption is never trusted and never silently destroyed: an entry
//! that exists but is not valid UTF-8, fails to parse (truncated by a
//! crash, hand-edited, bit-rotted) or is larger than 16 MiB (a fig18
//! entry is ~1.2 KB) is renamed to `<key>.quarantine` —
//! preserved for post-mortem, off the hot path, counted via
//! [`Cache::quarantined_count`] (the manifest's `cache_quarantined`).
//! An entry that cannot be opened or read at all (absent, no
//! permission, an I/O error) is a plain miss and is left where it is.
//! So is a *mismatched* identity under the same key: it is a hash
//! collision or a stale slot, and the next store legitimately claims it.
//!
//! A warm hit costs one `open`, two `read`s into a reused per-thread
//! buffer, and one validating pass that decodes the identity and then
//! the value in place (`simrunner/tests/cache_decisions.rs` pins what
//! each kind of entry decides).
//!
//! The cache is unbounded and nothing evicts from it: an entry's mtime is
//! the time it was written, and [`Cache::load`] never writes. Quarantined
//! files stay until someone deletes them.

use crate::Fnv1a;
use serde::{Deserialize, Reader, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fs;
use std::io::{self, Read};
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
    /// The stable content hash this identity is filed under: FNV-1a over
    /// `experiment \0 version \0 params \0 seed-as-8-LE-bytes`, streamed
    /// field by field.
    pub fn key(&self) -> u64 {
        let mut h = Fnv1a::new();
        for field in [self.experiment, self.version, self.params] {
            h.write(field.as_bytes());
            h.write(&[0]);
        }
        h.write(&self.seed.to_le_bytes());
        h.finish()
    }
}

/// `key` as the 16 lowercase hex digits (`{key:016x}`) an entry's file
/// and its manifest record are named by.
pub(crate) fn key_hex(key: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0; 16];
    for (i, b) in out.iter_mut().enumerate() {
        *b = HEX[(key >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// An open per-experiment cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    quarantined: Arc<AtomicU64>,
}

/// A loading thread's reused entry path and read buffer.
struct Scratch {
    path: PathBuf,
    /// Zero-filled up to its length, which only grows (up to
    /// [`KEEP_BUF`]): a read fills a prefix and no call re-zeroes it.
    buf: Vec<u8>,
}

/// Largest read buffer a thread keeps between loads. A hostile entry
/// may be any size; the buffer it needed is dropped after its load.
const KEEP_BUF: usize = 1 << 20;

/// Largest entry a load reads (a fig18 entry is ~1.2 KB). A bigger file,
/// or one that never ends (a link to `/dev/zero`), is corrupt: reading
/// stops one byte past this size instead of exhausting memory.
const MAX_ENTRY: usize = 16 << 20;

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            path: PathBuf::new(),
            buf: Vec::new(),
        })
    };
}

/// What one entry's bytes decide for the identity being loaded.
enum Verdict<T> {
    Hit(T),
    /// Filed under another identity.
    Miss,
    /// Present but not a valid entry for this reader: quarantine.
    Corrupt,
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

    /// Point `path` at the entry file for `key`, reusing its buffer.
    fn set_entry_path(&self, path: &mut PathBuf, key: u64) {
        let mut name = *b"0000000000000000.json";
        name[..16].copy_from_slice(&key_hex(key));
        path.as_mut_os_string().clear();
        path.push(&self.dir);
        path.push(std::str::from_utf8(&name).expect("ASCII file name"));
    }

    fn path_for_key(&self, key: u64) -> PathBuf {
        let mut path = PathBuf::new();
        self.set_entry_path(&mut path, key);
        path
    }

    /// The file an identity's entry is (or would be) stored in.
    pub fn entry_path(&self, id: &CellIdentity<'_>) -> PathBuf {
        self.path_for_key(id.key())
    }

    /// Load a cached value, or `None` on any miss/corruption/mismatch.
    /// A hit only reads the entry; a corrupt entry is quarantined.
    pub fn load<T: Deserialize>(&self, id: &CellIdentity<'_>) -> Option<T> {
        self.load_keyed(id.key(), id)
    }

    /// [`load`](Self::load) with `id`'s [`key`](CellIdentity::key)
    /// already computed.
    ///
    /// The entry is read into this thread's reused buffer, and one
    /// validating pass over it decodes the identity in place and, once
    /// the whole identity has been read and matches, the value as well.
    /// Only a `value` that comes before the identity is skipped and
    /// decoded afterwards.
    pub(crate) fn load_keyed<T: Deserialize>(&self, key: u64, id: &CellIdentity<'_>) -> Option<T> {
        SCRATCH.with_borrow_mut(|s| {
            self.set_entry_path(&mut s.path, key);
            // Absent is the normal miss; any other read error (perms,
            // I/O) degrades to a miss without touching the file.
            let len = read_entry(&s.path, &mut s.buf).ok()?;
            // Bytes that are not UTF-8 (bit rot, a foreign writer), or
            // more of them than `MAX_ENTRY`, are corruption like any
            // other undecodable entry.
            let verdict = match std::str::from_utf8(&s.buf[..len]) {
                Ok(text) if len <= MAX_ENTRY => verdict(text, id),
                _ => Verdict::Corrupt,
            };
            if s.buf.len() > KEEP_BUF {
                s.buf = Vec::new();
            }
            match verdict {
                Verdict::Hit(v) => Some(v),
                Verdict::Miss => None,
                Verdict::Corrupt => {
                    self.quarantine(&s.path);
                    None
                }
            }
        })
    }

    /// Store a value under its identity (overwrites any previous entry).
    pub fn store<T: Serialize>(&self, id: &CellIdentity<'_>, value: &T) -> io::Result<()> {
        self.store_keyed(id.key(), id, value)
    }

    /// [`store`](Self::store) with `id`'s key already computed.
    pub(crate) fn store_keyed<T: Serialize>(
        &self,
        key: u64,
        id: &CellIdentity<'_>,
        value: &T,
    ) -> io::Result<()> {
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
        let path = self.path_for_key(key);
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)
    }
}

/// Read the file at `path` into the front of `buf`, growing `buf` as
/// needed, and return the length read: the whole file, or
/// `MAX_ENTRY + 1` bytes of a longer one. Unlike `fs::read`, it neither
/// stats nor seeks the file to size a fresh buffer.
fn read_entry(path: &Path, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut file = fs::File::open(path)?;
    let mut len = 0;
    while len <= MAX_ENTRY {
        if len == buf.len() {
            buf.resize((2 * len).clamp(4096, MAX_ENTRY + 1), 0);
        }
        match file.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(len)
}

/// Decide what `text` holds for `id`. An entry is a hit only if it is
/// valid JSON end to end, its identity (the first occurrence of each
/// field) is well typed and matches, and its first `value` decodes.
fn verdict<T: Deserialize>(text: &str, id: &CellIdentity<'_>) -> Verdict<T> {
    // Structurally broken, or the identity is missing or mistyped: corrupt.
    let Some(entry) = Entry::<T>::scan(text, id) else {
        return Verdict::Corrupt;
    };
    if !entry.identity.matches(id) {
        // Collision or stale slot: a legitimate miss, the next store
        // overwrites it.
        return Verdict::Miss;
    }
    // The identity matches, so the payload must decode: an absent or
    // undecodable value is corrupt for exactly this reader.
    match entry.value {
        Some(Value::Decoded(v)) => Verdict::Hit(v),
        Some(Value::Text(t)) => serde::from_str::<T>(t).map_or(Verdict::Corrupt, Verdict::Hit),
        None => Verdict::Corrupt,
    }
}

/// An entry's identity fields. Each is `None` until its key is seen and
/// `Some(None)` when its value had the wrong type.
#[derive(Default)]
struct Identity<'a> {
    experiment: Option<Option<Cow<'a, str>>>,
    version: Option<Option<Cow<'a, str>>>,
    params: Option<Option<Cow<'a, str>>>,
    seed: Option<Option<u64>>,
}

impl Identity<'_> {
    /// Every field has been read, is well typed, and equals `id`'s.
    fn matches(&self, id: &CellIdentity<'_>) -> bool {
        let text =
            |f: &Option<Option<Cow<'_, str>>>, want: &str| matches!(f, Some(Some(s)) if s == want);
        text(&self.experiment, id.experiment)
            && text(&self.version, id.version)
            && text(&self.params, id.params)
            && self.seed == Some(Some(id.seed))
    }

    /// Every field has been read and is well typed.
    fn well_typed(&self) -> bool {
        matches!(
            (&self.experiment, &self.version, &self.params, &self.seed),
            (Some(Some(_)), Some(Some(_)), Some(Some(_)), Some(Some(_)))
        )
    }
}

/// The first `value` of an entry: decoded in place, or its text when it
/// came before the identity was complete and matching.
enum Value<'a, T> {
    Decoded(T),
    Text(&'a str),
}

/// A syntactically valid entry with a well-typed identity.
struct Entry<'a, T> {
    identity: Identity<'a>,
    value: Option<Value<'a, T>>,
}

impl<'a, T: Deserialize> Entry<'a, T> {
    /// Validate the whole entry in one pass; `None` if it is not JSON,
    /// not an object, or lacks a well-typed identity field, or if its
    /// value fails to decode in place (the identity matched `id`, so
    /// such an entry is corrupt for this reader).
    fn scan(text: &'a str, id: &CellIdentity<'_>) -> Option<Entry<'a, T>> {
        let mut ident = Identity::default();
        let mut value = None;
        let mut r = Reader::new(text);
        r.begin_obj()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "experiment" if ident.experiment.is_none() => {
                    ident.experiment = Some(text_field(&mut r)?)
                }
                "version" if ident.version.is_none() => ident.version = Some(text_field(&mut r)?),
                "params" if ident.params.is_none() => ident.params = Some(text_field(&mut r)?),
                "seed" if ident.seed.is_none() => {
                    ident.seed = Some(serde::from_str::<u64>(r.skip()?))
                }
                "value" if value.is_none() => {
                    // Once the identity is complete, later duplicates of
                    // its keys cannot change it: decode straight from the
                    // entry. A failed decode leaves the reader mid-value,
                    // and the entry is corrupt whatever follows.
                    value = Some(if ident.matches(id) {
                        Value::Decoded(T::read_json(&mut r)?)
                    } else {
                        Value::Text(r.skip()?)
                    });
                }
                _ => {
                    r.skip()?;
                }
            }
        }
        r.end()?;
        ident.well_typed().then_some(Entry {
            identity: ident,
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
    fn unreadable_entry_is_a_plain_miss_left_in_place() {
        let root = scratch("unreadable");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 2,
        };
        // A directory in the entry's slot opens but fails every read.
        let path = cache.entry_path(&id);
        fs::create_dir(&path).unwrap();
        assert_eq!(cache.load::<f64>(&id), None);
        assert_eq!(cache.quarantined_count(), 0, "an I/O error is no verdict");
        assert!(path.is_dir(), "an unreadable entry must stay where it is");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_of_any_size_load_through_the_reused_buffer() {
        let root = scratch("sizes");
        let cache = Cache::open(&root, "exp").unwrap();
        // Around the buffer's first size, then past the size it keeps.
        for (seed, len) in [
            (1, 10),
            (2, 4000),
            (3, 4100),
            (4, 9000),
            (5, KEEP_BUF + 7),
            (6, 3),
        ] {
            let id = CellIdentity {
                experiment: "exp",
                version: "v1",
                params: "p",
                seed,
            };
            let value = "x".repeat(len);
            cache.store(&id, &value).unwrap();
            assert_eq!(cache.load::<String>(&id).as_deref(), Some(&*value), "{len}");
        }
        assert_eq!(cache.quarantined_count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_entry_is_quarantined_without_reading_it_all() {
        let root = scratch("oversized");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 4,
        };
        cache.store(&id, &1.0f64).unwrap();
        let path = cache.entry_path(&id);
        // A hit if it were read whole: trailing whitespace is valid.
        let mut padded = fs::read(&path).unwrap();
        padded.resize(MAX_ENTRY + 1, b' ');
        fs::write(&path, &padded).unwrap();
        assert_eq!(cache.load::<f64>(&id), None);
        assert_eq!(cache.quarantined_count(), 1);
        assert!(path.with_extension("quarantine").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_hashes_the_identity_fields_nul_separated() {
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "size=1",
            seed: 0x0102,
        };
        let mut bytes = b"exp\0v1\0size=1\0".to_vec();
        bytes.extend_from_slice(&0x0102u64.to_le_bytes());
        assert_eq!(id.key(), crate::fnv1a64(&bytes));
        for key in [0, 1, 0xdead_beef, id.key(), u64::MAX] {
            assert_eq!(key_hex(key), format!("{key:016x}").as_bytes());
        }
        assert_eq!(
            Cache::open(&scratch("name"), "exp")
                .unwrap()
                .entry_path(&id)
                .file_name()
                .unwrap(),
            &*format!("{:016x}.json", id.key())
        );
        let _ = fs::remove_dir_all(scratch("name"));
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
