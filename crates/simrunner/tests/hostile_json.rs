//! Hostile input to the JSON parser behind every cache entry and shard
//! manifest read from disk: truncated or absurdly nested text must fail
//! to parse — never panic, loop, or overflow the stack.

use proptest::prelude::*;
use serde::{Json, MAX_DEPTH};
use simrunner::{Campaign, RunnerOpts};
use std::sync::OnceLock;

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
