//! Byte-exact output of the serde shim's serializer.
//!
//! Cache entries, manifests and trace JSONL are content-addressed or
//! fingerprinted by their rendered bytes, so the text `serde::to_string`
//! produces is part of the on-disk format. The strings below were
//! recorded from the tree-building serializer that the streaming one
//! replaced; every derive shape, `None`, non-finite floats, integers past
//! 2^53 and every string escape must render exactly as they did, and
//! read back to the same value.

use experiments::campaigns::FlowStats;
use serde::{Deserialize, Json, Serialize};
use simrunner::{Cache, CellIdentity};
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u64,
    ratio: f64,
    label: String,
    maybe: Option<u32>,
    list: Vec<i64>,
    pair: (u8, f64),
    inner: Pair,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i32, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Other,
    Newtype(f64),
    Tuple(u8, bool),
    Struct { x: i64, y: Option<String> },
}

/// Every character the renderer escapes, plus neighbours it must not.
fn escapes() -> String {
    let mut s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
    s.push_str("\"\\/\u{7f} é😀\u{2028}plain");
    s
}

fn named() -> Named {
    Named {
        id: 42,
        ratio: 0.092_908_732_764_281_02,
        label: "a \"quoted\"\tlabel".into(),
        maybe: None,
        list: vec![-1, 0, 9_007_199_254_740_993],
        pair: (7, -0.5),
        inner: Pair(-3, "x".into()),
    }
}

/// `(name, rendered)` for every pinned case.
fn rendered() -> Vec<(&'static str, String)> {
    let two53 = 1u64 << 53;
    vec![
        ("named", serde::to_string(&named())),
        ("newtype", serde::to_string(&Newtype(7))),
        ("tuple", serde::to_string(&Pair(i32::MIN, "t".into()))),
        ("empty", serde::to_string(&Empty {})),
        ("unit", serde::to_string(&Shape::Unit)),
        ("newtype_variant", serde::to_string(&Shape::Newtype(2.5))),
        ("tuple_variant", serde::to_string(&Shape::Tuple(255, true))),
        (
            "struct_variant",
            serde::to_string(&Shape::Struct {
                x: -9,
                y: Some("y".into()),
            }),
        ),
        (
            "struct_variant_none",
            serde::to_string(&Shape::Struct { x: 0, y: None }),
        ),
        (
            "variants",
            serde::to_string(&vec![Shape::Other, Shape::Unit, Shape::Newtype(f64::NAN)]),
        ),
        ("none", serde::to_string(&None::<u64>)),
        ("some", serde::to_string(&Some(5u8))),
        ("nan", serde::to_string(&f64::NAN)),
        (
            "non_finite",
            serde::to_string(&vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN]),
        ),
        ("f32", serde::to_string(&vec![0.1f32, f32::NAN, 3.0f32])),
        (
            "large_ints",
            serde::to_string(&vec![two53 - 1, two53, two53 + 1, u64::MAX]),
        ),
        (
            "signed_ints",
            serde::to_string(&vec![i64::MIN, i64::MAX, -(1i64 << 53) + 1, -1, 0]),
        ),
        ("usize", serde::to_string(&vec![usize::MAX, 0, 10])),
        (
            "floats",
            serde::to_string(&vec![
                -0.0,
                0.1,
                1e-7,
                1e21,
                f64::MAX,
                f64::MIN_POSITIVE,
                123_456_789.123,
                -2.25,
                90_071_992_547_409_920.0,
            ]),
        ),
        ("escapes", serde::to_string(&escapes())),
        ("empty_string", serde::to_string(&String::new())),
        ("bools", serde::to_string(&(true, false))),
        (
            "triple",
            serde::to_string(&(1u8, "two".to_string(), 3.5f64)),
        ),
        ("duration", serde::to_string(&Duration::new(3, 141_592_653))),
        (
            "nested",
            serde::to_string(&vec![vec![], vec![1u8], vec![2, 3]]),
        ),
        (
            "tree",
            Json::Obj(vec![
                (escapes(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
                ("n".into(), Json::Num(-0.0)),
                ("s".into(), Json::Str("é\n".into())),
                ("o".into(), Json::Obj(vec![])),
            ])
            .render(),
        ),
    ]
}

/// Recorded from the tree-building serializer.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("named", "{\"id\":42,\"ratio\":0.09290873276428102,\"label\":\"a \\\"quoted\\\"\\tlabel\",\"maybe\":null,\"list\":[-1,0,9007199254740992],\"pair\":[7,-0.5],\"inner\":[-3,\"x\"]}"),
    ("newtype", "7"),
    ("tuple", "[-2147483648,\"t\"]"),
    ("empty", "{}"),
    ("unit", "\"Unit\""),
    ("newtype_variant", "{\"Newtype\":2.5}"),
    ("tuple_variant", "{\"Tuple\":[255,true]}"),
    ("struct_variant", "{\"Struct\":{\"x\":-9,\"y\":\"y\"}}"),
    ("struct_variant_none", "{\"Struct\":{\"x\":0,\"y\":null}}"),
    ("variants", "[\"Other\",\"Unit\",{\"Newtype\":null}]"),
    ("none", "null"),
    ("some", "5"),
    ("nan", "null"),
    ("non_finite", "[null,null,null]"),
    ("f32", "[0.10000000149011612,null,3]"),
    ("large_ints", "[9007199254740991,9007199254740992,9007199254740992,18446744073709552000]"),
    ("signed_ints", "[-9223372036854776000,9223372036854776000,-9007199254740991,-1,0]"),
    ("usize", "[18446744073709552000,0,10]"),
    ("floats", "[0,0.1,0.0000001,1000000000000000000000,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,123456789.123,-2.25,90071992547409920]"),
    ("escapes", "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\/\u{7f} é😀\u{2028}plain\""),
    ("empty_string", "\"\""),
    ("bools", "[true,false]"),
    ("triple", "[1,\"two\",3.5]"),
    ("duration", "{\"secs\":3,\"nanos\":141592653}"),
    ("nested", "[[],[1],[2,3]]"),
    ("tree", "{\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\/\u{7f} é😀\u{2028}plain\":[null,true],\"n\":0,\"s\":\"é\\n\",\"o\":{}}"),
];

#[test]
fn every_shape_renders_as_recorded() {
    let got = rendered();
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    for ((name, text), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(text, want, "case {name}");
    }
}

fn golden(name: &str) -> &'static str {
    GOLDEN.iter().find(|(n, _)| *n == name).unwrap().1
}

#[test]
fn recorded_text_reads_back() {
    // Integers travel as f64: 2^53 + 1 comes back as 2^53.
    let mut rounded = named();
    rounded.list[2] = 1 << 53;
    assert_eq!(serde::from_str(golden("named")), Some(rounded));
    assert_eq!(serde::from_str(golden("newtype")), Some(Newtype(7)));
    assert_eq!(
        serde::from_str(golden("tuple")),
        Some(Pair(i32::MIN, "t".into()))
    );
    assert_eq!(serde::from_str(golden("empty")), Some(Empty {}));
    assert_eq!(serde::from_str(golden("unit")), Some(Shape::Unit));
    assert_eq!(
        serde::from_str(golden("newtype_variant")),
        Some(Shape::Newtype(2.5))
    );
    assert_eq!(
        serde::from_str(golden("tuple_variant")),
        Some(Shape::Tuple(255, true))
    );
    assert_eq!(
        serde::from_str(golden("struct_variant")),
        Some(Shape::Struct {
            x: -9,
            y: Some("y".into())
        })
    );
    assert_eq!(
        serde::from_str(golden("struct_variant_none")),
        Some(Shape::Struct { x: 0, y: None })
    );
    assert_eq!(serde::from_str(golden("none")), Some(None::<u64>));
    assert!(serde::from_str::<f64>(golden("nan")).unwrap().is_nan());
    assert_eq!(serde::from_str(golden("escapes")), Some(escapes()));
    assert_eq!(
        serde::from_str(golden("triple")),
        Some((1u8, "two".to_string(), 3.5f64))
    );
    assert_eq!(
        serde::from_str(golden("duration")),
        Some(Duration::new(3, 141_592_653))
    );
    // Unknown tags, extra members and wrong arities decode to nothing.
    for bad in [
        r#""Newtype""#,
        r#"{"Unit":null}"#,
        r#"{"Newtype":1,"Unit":null}"#,
        r#"{"Tuple":[1]}"#,
        r#"{"Tuple":[1,true,3]}"#,
        r#"{"Struct":{"x":1}}"#,
        r#"{}"#,
        r#""Missing""#,
    ] {
        assert_eq!(serde::from_str::<Shape>(bad), None, "{bad}");
    }
    // Struct variants take members in any order, first occurrence first.
    assert_eq!(
        serde::from_str(r#"{"Struct":{"y":null,"z":[],"x":4,"x":"no"}}"#),
        Some(Shape::Struct { x: 4, y: None })
    );
}

/// A real Fig. 18 cache entry, as written by `Cache::store`.
const FIG18_ENTRY: &str = include_str!("json/fig18_entry.json");

#[test]
fn fig18_entry_restores_byte_identically() {
    let dir = std::env::temp_dir().join(format!("json-golden-fig18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(&dir, "fct_sweep").unwrap();
    let id = CellIdentity {
        experiment: "fct_sweep",
        version: "v2",
        params: "site=oracle-sydney hop=wifi bw_bps=80000000 ow_ns=24000000 \
                 jstd_ns=2500000 jcorr=0.3 buf_bdp=1.5 cc=bbr size=4000000",
        seed: 2,
    };
    let path = cache.entry_path(&id);
    assert!(path.ends_with("1b7004c40c62973b.json"), "{path:?}");
    std::fs::write(&path, FIG18_ENTRY).unwrap();
    let stats: FlowStats = cache.load(&id).expect("recorded entry is a hit");
    assert_eq!(stats.segs_sent, 3046);
    assert_eq!(stats.retransmit_rate, 0.092_908_732_764_281_02);
    assert_eq!(stats.counters.get("net.events_processed"), Some(16131));
    std::fs::remove_file(&path).unwrap();
    cache.store(&id, &stats).unwrap();
    let rewritten = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rewritten, FIG18_ENTRY);
}
