//! Differential test of the JSON grammar: `Json::parse`, which decodes
//! through `serde::Reader`, must accept exactly the documents the
//! recursive tree parser it replaced accepted, and build the same tree.
//! That parser is kept below, verbatim, as the oracle. Inputs are real
//! cache entries, manifests and trace lines, mutated byte by byte.

mod mutation;

use mutation::{mutate, reorderings};
use proptest::prelude::*;
use serde::Json;
use simrunner::{Campaign, FctAnnotation, RunnerOpts};
use simtrace::TraceRecord;
use std::sync::OnceLock;

/// The tree parser the streaming reader replaced.
mod oracle {
    use serde::{Json, MAX_DEPTH};

    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b'n' => {
                eat(b, pos, "null")?;
                Some(Json::Null)
            }
            b't' => {
                eat(b, pos, "true")?;
                Some(Json::Bool(true))
            }
            b'f' => {
                eat(b, pos, "false")?;
                Some(Json::Bool(false))
            }
            b'"' => parse_string(b, pos).map(Json::Str),
            b'[' if depth >= MAX_DEPTH => None,
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b']' => {
                            *pos += 1;
                            return Some(Json::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'{' if depth >= MAX_DEPTH => None,
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Some(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return None;
                    }
                    *pos += 1;
                    let val = parse_value(b, pos, depth + 1)?;
                    fields.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b'}' => {
                            *pos += 1;
                            return Some(Json::Obj(fields));
                        }
                        _ => return None,
                    }
                }
            }
            _ => parse_number(b, pos),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        *pos += 1;
        let mut s = String::new();
        loop {
            match *b.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(s);
                }
                b'\\' => {
                    *pos += 1;
                    match *b.get(*pos)? {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits, no sign.
                            let cp = b
                                .get(*pos + 1..*pos + 5)?
                                .iter()
                                .try_fold(0, |cp, &h| Some(cp * 16 + (h as char).to_digit(16)?))?;
                            s.push(char::from_u32(cp)?);
                            *pos += 4;
                        }
                        _ => return None,
                    }
                    *pos += 1;
                }
                _ => {
                    // Copy the whole run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary and each byte
                    // is validated once: parsing stays linear in the input.
                    let start = *pos;
                    while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                        *pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        if *pos == start {
            return None;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }
}

/// The documents mutations start from.
fn bases() -> &'static [String] {
    static BASES: OnceLock<Vec<String>> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut c = Campaign::new("json-oracle", "v1");
        for seed in 0..4 {
            c.cell(format!("cell-{seed}"), format!("seed={seed} \"q\""), seed);
        }
        let mut manifest = c
            .run(&RunnerOpts::serial().executor(), |cell| {
                cell.seed as f64 / 3.0
            })
            .manifest;
        manifest.annotations.push(FctAnnotation {
            label: "fleet/4G/cubic+suss/<=2MB".into(),
            n: 1800,
            p50: 0.21,
            p90: 1e-7,
            p99: 2.5e21,
            p999: f64::NAN,
        });
        let mut trace =
            TraceRecord::decision(42, 7, "cc_ssthresh", "loss,\t\"fast\"\nretransmit é");
        trace.value = Some(14480.0);
        vec![
            include_str!("json/fig18_entry.json").to_string(),
            manifest.to_json_string(),
            serde::to_string(&trace),
            r#" { "a" : [ 1 , -2.5e3, 0.1,1E+2, true,false , null ] ,
                "s":"é\n\\\"x\/\b\f\r\t😀","o":{"":{},"k":[[],[{}]]},"n":-0 } "#
                .to_string(),
        ]
    })
}

fn assert_same(text: &str) {
    let got = Json::parse(text);
    let want = oracle::parse(text);
    // `Debug` tells -0.0 from 0.0, which `PartialEq` does not.
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "input {text:?}");
}

#[test]
fn unmutated_bases_agree_and_parse() {
    for text in bases() {
        assert!(oracle::parse(text).is_some(), "{text}");
        assert_same(text);
    }
}

#[test]
fn every_truncation_and_single_deletion_agrees() {
    for text in bases() {
        let cuts: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        for w in cuts.windows(2) {
            assert_same(&text[..w[0]]);
            assert_same(&format!("{}{}", &text[..w[0]], &text[w[1]..]));
        }
    }
}

#[test]
fn reordered_and_duplicated_members_agree() {
    for text in bases() {
        for reordered in reorderings(text) {
            assert_same(&reordered);
        }
    }
}

#[test]
fn nesting_limit_agrees() {
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        for depth in [127, 128, 129] {
            assert_same(&format!("{}0{}", open.repeat(depth), close.repeat(depth)));
        }
    }
}

proptest! {
    #[test]
    fn mutated_documents_parse_as_the_oracle_does(
        base in 0usize..4,
        edits in prop::collection::vec((0u8..9, 0.0f64..1.0, 0usize..16, 0usize..64), 1..40),
    ) {
        // Edits accumulate: the document is checked after each one, so
        // one case covers light and heavy damage.
        let mut text = bases()[base].clone();
        for (op, at, len, ch) in edits {
            text = mutate(&text, op, at, len, ch);
            assert_same(&text);
        }
    }
}
