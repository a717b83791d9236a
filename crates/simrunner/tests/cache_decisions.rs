//! What `Cache::load` makes of an entry, case by case.
//!
//! An entry is a hit only if it is valid JSON end to end, its identity
//! fields (first occurrence of each key) are well typed and match, and
//! its first `value` decodes. A syntax error anywhere, or a missing or
//! mistyped identity field, quarantines it; a well-formed entry filed
//! under another identity is a plain miss, whatever its value holds; a
//! matching identity whose value is absent or does not decode
//! quarantines it. Every expectation below is what the tree-building
//! loader this one replaced decided for the same bytes.

use serde::{Deserialize, Serialize};
use simrunner::{Cache, CellIdentity};
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    n: u64,
    tag: String,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Hit(Payload),
    Miss,
    Quarantine,
}
use Outcome::*;

const ID: CellIdentity<'static> = CellIdentity {
    experiment: "exp",
    version: "v1",
    params: "p=1",
    seed: 7,
};

fn hit() -> Outcome {
    Hit(Payload {
        n: 3,
        tag: "t".into(),
    })
}

/// The entry `Cache::store` writes for `ID` and `hit()`'s payload.
const STORED: &str =
    r#"{"experiment":"exp","version":"v1","params":"p=1","seed":7,"value":{"n":3,"tag":"t"}}"#;

const VALUE: &str = r#"{"n":3,"tag":"t"}"#;

fn scratch() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simrunner-cache-decisions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Load `text` filed under `ID` and classify the result.
fn decide(cache: &Cache, text: &str) -> Outcome {
    let path = cache.entry_path(&ID);
    let before = cache.quarantined_count();
    std::fs::write(&path, text).unwrap();
    let got = cache.load::<Payload>(&ID);
    let quarantined = cache.quarantined_count() - before;
    match (got, quarantined) {
        (Some(p), 0) => {
            assert!(path.exists(), "a hit must leave the entry in place");
            Hit(p)
        }
        (None, 0) => {
            assert!(path.exists(), "a miss must leave the entry in place");
            Miss
        }
        (None, 1) => {
            assert!(!path.exists(), "a quarantined entry must leave the slot");
            let _ = std::fs::remove_file(path.with_extension("quarantine"));
            Quarantine
        }
        (got, n) => panic!("load returned {got:?} and quarantined {n}"),
    }
}

/// `STORED` with the identity members replaced by `identity` (a
/// comma-separated member list) and the value by `value`.
fn entry(identity: &str, value: &str) -> String {
    format!("{{{identity},\"value\":{value}}}")
}

const IDENT: &str = r#""experiment":"exp","version":"v1","params":"p=1","seed":7"#;

#[test]
fn load_decides_as_recorded() {
    let dir = scratch();
    let cache = Cache::open(&dir, "exp").unwrap();
    cache
        .store(
            &ID,
            &Payload {
                n: 3,
                tag: "t".into(),
            },
        )
        .unwrap();
    assert_eq!(
        std::fs::read_to_string(cache.entry_path(&ID)).unwrap(),
        STORED
    );

    let cases: Vec<(&str, String, Outcome)> = vec![
        ("as stored", STORED.into(), hit()),
        (
            "identity after value",
            format!(
                r#"{{"value":{VALUE},"seed":7,"params":"p=1","version":"v1","experiment":"exp"}}"#
            ),
            hit(),
        ),
        (
            "escaped identity",
            entry(
                r#""experiment":"e\u0078p","version":"v1","params":"p\u003d1","seed":7"#,
                VALUE,
            ),
            hit(),
        ),
        (
            "seed as 7.0",
            entry(&IDENT.replace(":7", ":7.0"), VALUE),
            hit(),
        ),
        (
            "seed as 7e0",
            entry(&IDENT.replace(":7", ":7e0"), VALUE),
            hit(),
        ),
        // Duplicated identity keys: the first occurrence decides.
        (
            "duplicate experiment, first matches",
            entry(&format!(r#"{IDENT},"experiment":"other""#), VALUE),
            hit(),
        ),
        (
            "duplicate experiment, first differs",
            entry(&format!(r#""experiment":"other",{IDENT}"#), VALUE),
            Miss,
        ),
        (
            "duplicate seed, second differs",
            entry(&format!(r#"{IDENT},"seed":8"#), VALUE),
            hit(),
        ),
        (
            "duplicate seed, first mistyped",
            entry(&format!(r#""seed":"7",{IDENT}"#), VALUE),
            Quarantine,
        ),
        (
            "duplicate params, first mistyped",
            entry(&format!(r#""params":1,{IDENT}"#), VALUE),
            Quarantine,
        ),
        // Mistyped or missing identity.
        (
            "seed as string",
            entry(&IDENT.replace(":7", ":\"7\""), VALUE),
            Quarantine,
        ),
        (
            "seed fractional",
            entry(&IDENT.replace(":7", ":7.5"), VALUE),
            Quarantine,
        ),
        (
            "seed null",
            entry(&IDENT.replace(":7", ":null"), VALUE),
            Quarantine,
        ),
        (
            "seed array",
            entry(&IDENT.replace(":7", ":[7]"), VALUE),
            Quarantine,
        ),
        (
            "seed negative zero",
            entry(&IDENT.replace(":7", ":-0"), VALUE),
            Miss,
        ),
        (
            "seed missing",
            entry(&IDENT.replace(",\"seed\":7", ""), VALUE),
            Quarantine,
        ),
        (
            "experiment as number",
            entry(&IDENT.replace("\"exp\"", "1"), VALUE),
            Quarantine,
        ),
        (
            "version mismatch",
            entry(&IDENT.replace("\"v1\"", "\"v0\""), VALUE),
            Miss,
        ),
        // The value.
        ("value as string", entry(IDENT, "\"x\""), Quarantine),
        (
            "value field mistyped",
            entry(IDENT, r#"{"n":"3","tag":"t"}"#),
            Quarantine,
        ),
        (
            "value field missing",
            entry(IDENT, r#"{"n":3}"#),
            Quarantine,
        ),
        ("value missing", format!("{{{IDENT}}}"), Quarantine),
        (
            "value mistyped, identity differs",
            entry(&IDENT.replace(":7", ":8"), "\"x\""),
            Miss,
        ),
        (
            "value missing, identity differs",
            format!("{{{}}}", IDENT.replace(":7", ":8")),
            Miss,
        ),
        (
            "duplicate value, second mistyped",
            format!(r#"{{{IDENT},"value":{VALUE},"value":"x"}}"#),
            hit(),
        ),
        (
            "duplicate value, first mistyped",
            format!(r#"{{{IDENT},"value":"x","value":{VALUE}}}"#),
            Quarantine,
        ),
        (
            "value member order and duplicates",
            entry(IDENT, r#"{"tag":"t","n":3,"n":"no"}"#),
            hit(),
        ),
        // Syntax errors anywhere, even under another identity.
        (
            "syntax error inside value",
            entry(IDENT, r#"{"n":3,"tag":"t",}"#),
            Quarantine,
        ),
        (
            "syntax error inside value, identity differs",
            entry(&IDENT.replace(":7", ":8"), r#"{"n":3,"tag":"t",}"#),
            Quarantine,
        ),
        (
            "bad escape in params",
            entry(&IDENT.replace("p=1", "p\\q"), VALUE),
            Quarantine,
        ),
        ("trailing garbage", format!("{STORED}x"), Quarantine),
        (
            "trailing second object",
            format!("{STORED}{{}}"),
            Quarantine,
        ),
        ("trailing whitespace", format!("{STORED} \n"), hit()),
        ("truncated", STORED[..STORED.len() - 1].into(), Quarantine),
        ("empty file", String::new(), Quarantine),
        ("array", format!("[{STORED}]"), Quarantine),
        ("null", "null".into(), Quarantine),
        // Unknown members are skipped, but still validated.
        (
            "unknown top-level members",
            entry(
                &format!(r#""extra":[1,{{"a":null}}],{IDENT},"z":"\n""#),
                VALUE,
            ),
            hit(),
        ),
        (
            "unknown member inside value",
            entry(IDENT, r#"{"n":3,"zz":{"deep":[true]},"tag":"t"}"#),
            hit(),
        ),
        (
            "unknown member with a syntax error",
            entry(&format!(r#"{IDENT},"extra":[1,]"#), VALUE),
            Quarantine,
        ),
        (
            "unknown member nested too deep",
            entry(
                &format!(r#"{IDENT},"extra":{}0{}"#, "[".repeat(128), "]".repeat(128)),
                VALUE,
            ),
            Quarantine,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, text, want) in cases {
        let got = decide(&cache, &text);
        if got != want {
            wrong.push(format!("{name}: got {got:?}, want {want:?}\n  {text}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
