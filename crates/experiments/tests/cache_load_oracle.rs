//! Differential test of the one-pass cache loader: `Cache::load`, which
//! decodes the value inside the same validating pass as the identity,
//! must make the decision the two-pass loader it replaced made for the
//! same bytes (hit, plain miss or quarantine) and decode the same value.
//! That loader (`Entry::scan`, then `serde::from_str` over the value's
//! text) is kept below, verbatim, as the oracle. Inputs are a real
//! Fig. 18 entry, mutated byte by byte and with its members (and its
//! value's members) reordered and duplicated.

mod mutation;

use experiments::campaigns::FlowStats;
use mutation::{members, mutate, object, reorderings};
use proptest::prelude::*;
use simrunner::{Cache, CellIdentity};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The two-pass loader: one validating pass that decodes the identity
/// and skips over the value, then a second pass decoding the value's
/// text once the identity matches.
mod oracle {
    use serde::{Deserialize, Reader};
    use simrunner::CellIdentity;
    use std::borrow::Cow;

    #[derive(Debug)]
    pub enum Decision<T> {
        Hit(T),
        Miss,
        Quarantine,
    }

    pub fn load<T: Deserialize>(text: &str, id: &CellIdentity<'_>) -> Decision<T> {
        let Some(entry) = Entry::scan(text) else {
            return Decision::Quarantine;
        };
        if entry.experiment != id.experiment
            || entry.version != id.version
            || entry.params != id.params
            || entry.seed != id.seed
        {
            return Decision::Miss;
        }
        match entry.value.and_then(serde::from_str::<T>) {
            Some(v) => Decision::Hit(v),
            None => Decision::Quarantine,
        }
    }

    struct Entry<'a> {
        experiment: Cow<'a, str>,
        version: Cow<'a, str>,
        params: Cow<'a, str>,
        seed: u64,
        value: Option<&'a str>,
    }

    impl<'a> Entry<'a> {
        fn scan(text: &'a str) -> Option<Entry<'a>> {
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

    fn text_field<'a>(r: &mut Reader<'a>) -> Option<Option<Cow<'a, str>>> {
        if r.peek()? == b'"' {
            r.str().map(Some)
        } else {
            r.skip().map(|_| None)
        }
    }
}

use oracle::Decision;

const FIG18_ENTRY: &str = include_str!("json/fig18_entry.json");

const ID: CellIdentity<'static> = CellIdentity {
    experiment: "fct_sweep",
    version: "v2",
    params: "site=oracle-sydney hop=wifi bw_bps=80000000 ow_ns=24000000 \
             jstd_ns=2500000 jcorr=0.3 buf_bdp=1.5 cc=bbr size=4000000",
    seed: 2,
};

/// One scratch cache per test binary; tests run on several threads, so
/// each test files its entries under its own experiment directory.
fn cache(experiment: &str) -> Cache {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    let root = ROOT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cache-load-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let _ = std::fs::remove_dir_all(root.join(experiment));
    Cache::open(root, experiment).unwrap()
}

/// Write `text` to `ID`'s slot, load it, and check the loader against
/// the oracle: same decision, same value, and the file left in place
/// or moved aside to match.
fn assert_same(cache: &Cache, text: &str) {
    let path = cache.entry_path(&ID);
    std::fs::write(&path, text).unwrap();
    let before = cache.quarantined_count();
    let got = cache.load::<FlowStats>(&ID);
    let quarantined = cache.quarantined_count() - before;
    let got = match (got, quarantined) {
        (Some(v), 0) => Decision::Hit(v),
        (None, 0) => Decision::Miss,
        (None, 1) => Decision::Quarantine,
        (got, n) => panic!("load returned {got:?} and quarantined {n}\n  {text}"),
    };
    let want = oracle::load::<FlowStats>(text, &ID);
    // `Debug` shows NaN and -0.0, which `PartialEq` cannot compare.
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "input {text:?}");
    let moved = matches!(got, Decision::Quarantine);
    assert_eq!(
        path.exists(),
        !moved,
        "{got:?} left the slot wrong: {text:?}"
    );
    let _ = std::fs::remove_file(path.with_extension("quarantine"));
}

#[test]
fn recorded_entry_is_a_hit_for_both() {
    let cache = cache("recorded");
    assert!(matches!(
        oracle::load::<FlowStats>(FIG18_ENTRY, &ID),
        Decision::Hit(_)
    ));
    assert_same(&cache, FIG18_ENTRY);
}

#[test]
fn every_truncation_and_single_deletion_agrees() {
    let cache = cache("cuts");
    let text = FIG18_ENTRY;
    let cuts: Vec<usize> = (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    for w in cuts.windows(2) {
        assert_same(&cache, &text[..w[0]]);
        assert_same(&cache, &format!("{}{}", &text[..w[0]], &text[w[1]..]));
    }
}

#[test]
fn reordered_and_duplicated_members_agree() {
    let cache = cache("reorder");
    let top = members(FIG18_ENTRY).unwrap();
    let at = top.iter().position(|(k, _)| k == "\"value\"").unwrap();
    let mut undecodable = top.clone();
    undecodable[at].1 = "\"x\"".into();
    let undecodable = object(&undecodable);
    // The entry's own members: the identity after the value, split
    // around it, repeated, and repeated mistyped. Under the recorded
    // identity and another seed, with the recorded value and one that
    // does not decode, so every order meets a hit, a plain miss and a
    // quarantine.
    for entry in [FIG18_ENTRY, &undecodable] {
        for entry in [entry.to_string(), entry.replace("\"seed\":2", "\"seed\":3")] {
            for text in reorderings(&entry) {
                assert_same(&cache, &text);
            }
        }
    }
    // The value's members, under the recorded identity.
    for value in reorderings(&top[at].1) {
        let mut m = top.clone();
        m[at].1 = value;
        assert_same(&cache, &object(&m));
    }
}

proptest! {
    #[test]
    fn mutated_entries_load_as_the_oracle_decides(
        edits in prop::collection::vec((0u8..9, 0.0f64..1.0, 0usize..16, 0usize..64), 1..40),
    ) {
        // Edits accumulate: the entry is checked after each one, so one
        // case covers light and heavy damage.
        let cache = cache("mutated");
        let mut text = FIG18_ENTRY.to_string();
        for (op, at, len, ch) in edits {
            text = mutate(&text, op, at, len, ch);
            assert_same(&cache, &text);
        }
    }
}
