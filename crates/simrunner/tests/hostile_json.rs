//! Hostile input to the JSON parser behind every cache entry and
//! manifest read from disk: truncated or absurdly nested text must fail
//! to parse — never panic, loop, or overflow the stack — and large
//! documents must parse in time linear in their length.

use proptest::prelude::*;
use serde::{Json, MAX_DEPTH};
use simrunner::{Campaign, CellRecord, CellStatus, RunManifest, RunnerOpts};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A real rendered [`simrunner::RunManifest`], as the runner writes it.
fn rendered_manifest() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut c = Campaign::new("hostile-json", "v1");
        for seed in 0..6 {
            c.cell(format!("cell-{seed}"), format!("seed={seed}"), seed);
        }
        let out = c.run(&RunnerOpts::serial().executor(), |cell| {
            cell.seed as f64 / 3.0
        });
        serde::to_string(&out.manifest)
    })
}

/// Strings over an alphabet that exercises every path of the string
/// parser: plain ASCII, the two characters that end an unescaped run
/// (`"` and `\`), every control character (rendered as escapes), and
/// 2-, 3- and 4-byte UTF-8.
fn hostile_string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0usize..2).prop_map(|i| ['"', '\\'][i]),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
        // 3-byte scalars, shifted past the surrogate gap.
        (0x800u32..0xf800)
            .prop_map(|c| char::from_u32(if c < 0xd800 { c } else { c + 0x800 }).unwrap()),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
    ];
    prop::collection::vec(ch, 0..40).prop_map(String::from_iter)
}

/// `depth` nested arrays (`open = "["`) or objects (`open = "{\"a\":"`)
/// around a `0`, every one of them closed.
fn nested(open: &str, close: &str, depth: usize) -> String {
    format!("{}0{}", open.repeat(depth), close.repeat(depth))
}

proptest! {
    #[test]
    fn truncated_manifest_never_parses(frac in 0.0f64..1.0) {
        let text = rendered_manifest();
        let mut cut = (frac * text.len() as f64) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(Json::parse(&text[..cut]).is_none(), "prefix of {cut} bytes parsed");
    }

    #[test]
    fn strings_round_trip_and_truncations_never_parse(s in hostile_string()) {
        let text = Json::Str(s.clone()).render();
        prop_assert_eq!(Json::parse(&text), Some(Json::Str(s)));
        for (cut, _) in text.char_indices() {
            prop_assert!(Json::parse(&text[..cut]).is_none(), "{text:?} cut at {cut} parsed");
        }
    }
}

/// Run `parse`, returning its result and how long it took.
fn timed<T>(parse: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = parse();
    (out, t0.elapsed())
}

#[test]
fn long_string_parses_in_linear_time() {
    // 256 KiB of mixed-width text with an escape every few dozen bytes.
    let mut s = String::new();
    while s.len() < 256 * 1024 {
        s.push_str("ASCII run, é ß, 日本語, 😀 \"quoted\" \\ tab\tend\n");
    }
    let text = Json::Str(s.clone()).render();
    let (parsed, took) = timed(|| Json::parse(&text));
    assert_eq!(parsed, Some(Json::Str(s)));
    // Linear parsing takes milliseconds even unoptimised; a parser that
    // re-validates the rest of the document per character takes tens of
    // seconds, so the bound catches it without flaking on a slow VM.
    assert!(
        took < Duration::from_secs(1),
        "256 KiB string parsed in {took:?}"
    );
}

#[test]
fn full_size_manifest_reads_in_linear_time() {
    // A fig18-sized manifest: 28 scenarios × 13 sizes × 3 CCs × 10 seeds.
    let mut m: RunManifest = serde::from_str(rendered_manifest()).expect("manifest parses");
    m.cells = (0..10_920u64)
        .map(|i| CellRecord {
            index: i as usize,
            label: format!(
                "scenario-{}/4G/cc{}/{}B/s{}",
                i / 390,
                i / 10 % 3,
                10_000 * (1 + i / 30 % 13),
                i % 10
            ),
            seed: i % 10,
            key: format!("{:016x}", simrunner::fnv1a64(&i.to_le_bytes())),
            cached: i % 2 == 0,
            wall_ms: i as f64 / 7.0,
            events: 13_000 + i,
            status: CellStatus::Ok,
            error: String::new(),
            flightrec: String::new(),
        })
        .collect();
    m.total_cells = m.cells.len();
    let text = m.to_json_string();
    let (back, took) = timed(|| serde::from_str::<RunManifest>(text.trim()));
    assert_eq!(back.expect("manifest reads back").to_json_string(), text);
    assert!(
        took < Duration::from_secs(10),
        "10,920-cell manifest read in {took:?}"
    );
}

#[test]
fn rendered_manifest_round_trips() {
    let text = rendered_manifest();
    assert_eq!(Json::parse(text).map(|j| j.render()).as_deref(), Some(text));
}

#[test]
fn deep_nesting_is_rejected_not_a_stack_overflow() {
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        assert!(
            Json::parse(&open.repeat(100_000)).is_none(),
            "{open} unclosed"
        );
        assert!(
            Json::parse(&nested(open, close, 100_000)).is_none(),
            "{open} closed"
        );
        // The cap is a limit on hostile input, not on real documents.
        assert!(Json::parse(&nested(open, close, MAX_DEPTH)).is_some());
        assert!(Json::parse(&nested(open, close, MAX_DEPTH + 1)).is_none());
    }
}
