//! # serde (shim) — JSON-backed serialization for an offline workspace
//!
//! The build environment cannot reach crates.io, so this crate provides
//! the serialization surface the workspace needs with zero external
//! dependencies. The model is deliberately concrete: values serialize to
//! an explicit [`Json`] tree, which renders to a deterministic string and
//! parses back exactly. `#[derive(Serialize)]` / `#[derive(Deserialize)]`
//! come from the companion `serde_derive` proc-macro crate and support
//! named structs, tuple structs, and enums with unit/tuple/struct
//! variants (externally tagged, like real serde).
//!
//! Determinism guarantees (the `simrunner` result cache depends on them):
//!
//! * object fields render in declaration order, never sorted or hashed;
//! * `f64` values render via Rust's shortest-roundtrip `Display`, so
//!   parse(render(x)) == x bit-for-bit for finite values;
//! * non-finite floats render as `null` and parse back as NaN.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::fmt::Write as _;
use std::time::Duration;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; exact for integers below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; field order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Borrow as an object's field list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Look up a field in an object's field list.
    pub fn field<'a>(obj: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
        obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Render to a compact, deterministic JSON string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => render_num(*x, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON string. Returns `None` on any syntax error, on
    /// trailing garbage, or on arrays/objects nested deeper than
    /// [`MAX_DEPTH`].
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
}

fn render_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        // Integral and exactly representable: render without a fraction.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's Display for f64 is shortest-roundtrip.
        let _ = write!(out, "{x}");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a hostile file of `[[[[…`
/// overflows the stack and aborts the process instead of failing to
/// parse. Real documents (manifests, cache entries) nest a handful deep.
pub const MAX_DEPTH: usize = 128;

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
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let cp = u32::from_str_radix(hex, 16).ok()?;
                        s.push(char::from_u32(cp)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let c = rest.chars().next()?;
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
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

/// Serialize a value into a [`Json`] tree.
pub trait Serialize {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

/// Reconstruct a value from a [`Json`] tree.
pub trait Deserialize: Sized {
    /// Convert from a JSON value; `None` on shape mismatch.
    fn from_json(v: &Json) -> Option<Self>;
}

/// Render any serializable value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> String {
    v.to_json().render()
}

/// Parse a JSON string into a deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Option<T> {
    Json::parse(s).and_then(|j| T::from_json(&j))
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Option<Self> {
                let x = v.as_f64()?;
                if x.is_finite() && x == x.trunc() {
                    Some(x as $t)
                } else {
                    None
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(*self)
        } else {
            Json::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Json {
        (*self as f64).to_json()
    }
}

impl Deserialize for f32 {
    fn from_json(v: &Json) -> Option<Self> {
        f64::from_json(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json(v: &Json) -> Option<Self> {
        let a = v.as_arr()?;
        if a.len() != 2 {
            return None;
        }
        Some((A::from_json(&a[0])?, B::from_json(&a[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json(v: &Json) -> Option<Self> {
        let a = v.as_arr()?;
        if a.len() != 3 {
            return None;
        }
        Some((A::from_json(&a[0])?, B::from_json(&a[1])?, C::from_json(&a[2])?))
    }
}

impl Serialize for Duration {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("secs".to_string(), Json::Num(self.as_secs() as f64)),
            ("nanos".to_string(), Json::Num(self.subsec_nanos() as f64)),
        ])
    }
}

impl Deserialize for Duration {
    fn from_json(v: &Json) -> Option<Self> {
        let o = v.as_obj()?;
        let secs = u64::from_json(Json::field(o, "secs")?)?;
        let nanos = u32::from_json(Json::field(o, "nanos")?)?;
        Some(Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for x in [0.0f64, 1.5, -2.25, 1e-17, 123456789.123, f64::MAX] {
            let s = to_string(&x);
            assert_eq!(from_str::<f64>(&s), Some(x), "f64 {x} via {s}");
        }
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(from_str::<u64>("42"), Some(42));
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn roundtrip_compound() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.25)];
        let s = to_string(&v);
        assert_eq!(s, "[[1,0.5],[2,1.25]]");
        assert_eq!(from_str::<Vec<(u64, f64)>>(&s), Some(v));
    }

    #[test]
    fn roundtrip_duration() {
        let d = Duration::new(3, 141_592_653);
        let s = to_string(&d);
        assert_eq!(from_str::<Duration>(&s), Some(d));
    }

    #[test]
    fn strings_escape() {
        let s = "a\"b\\c\nd\u{1}".to_string();
        let rendered = to_string(&s);
        assert_eq!(from_str::<String>(&rendered), Some(s));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("1 2"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn object_field_order_is_preserved() {
        let j = Json::Obj(vec![
            ("z".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(2.0)),
        ]);
        assert_eq!(j.render(), "{\"z\":1,\"a\":2}");
        assert_eq!(Json::parse(&j.render()), Some(j));
    }
}
