//! # serde (shim) — streaming JSON serialization for an offline workspace
//!
//! The build environment cannot reach crates.io, so this crate provides
//! the serialization surface the workspace needs with zero external
//! dependencies. Values stream straight to and from text, with no
//! intermediate tree: [`Serialize::write_json`] appends a value's JSON to
//! a `String`, and [`Deserialize::read_json`] decodes one from a
//! [`Reader`], the single JSON grammar in the crate: a validating byte
//! cursor that enforces [`MAX_DEPTH`]. `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` come from the companion `serde_derive`
//! proc-macro crate and support named structs, tuple structs, and enums
//! with unit/tuple/struct variants (externally tagged, like real serde).
//! [`Json`] remains as an ordinary value type for code that wants a tree;
//! it decodes through the same [`Reader`].
//!
//! Determinism guarantees (the `simrunner` result cache depends on them):
//!
//! * object fields render in declaration order, never sorted or hashed;
//! * `f64` values render via Rust's shortest-roundtrip `Display`, so
//!   parse(render(x)) == x bit-for-bit for finite values;
//! * non-finite floats render as `null` and parse back as NaN.
//!
//! Decoding a struct follows the rules a tree lookup would: the first
//! occurrence of a key wins, later duplicates and unknown keys are
//! skipped (their syntax still fully validated), and every field is
//! required. Reading runs in time linear in the input's length: each byte
//! is scanned once, and a string without escapes is borrowed, not copied.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
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
        to_string(self)
    }

    /// Parse a JSON string. Returns `None` on any syntax error, on
    /// trailing garbage, or on arrays/objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Option<Json> {
        from_str(text)
    }
}

impl Serialize for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Num(x) => render_num(*x, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
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
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl Deserialize for Json {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.peek()? {
            b'n' => {
                r.null()?;
                Json::Null
            }
            b't' | b'f' => Json::Bool(r.bool()?),
            b'"' => Json::Str(r.str()?.into_owned()),
            b'[' => {
                r.begin_arr()?;
                let mut items = Vec::new();
                while r.next_item()? {
                    items.push(Json::read_json(r)?);
                }
                Json::Arr(items)
            }
            b'{' => {
                r.begin_obj()?;
                let mut fields = Vec::new();
                while let Some(key) = r.next_key()? {
                    let value = Json::read_json(r)?;
                    fields.push((key.into_owned(), value));
                }
                Json::Obj(fields)
            }
            _ => Json::Num(r.num()?),
        })
    }
}

/// Largest magnitude below which an integral `f64` renders through the
/// integer path: 2^53, past which not every integer is representable.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn render_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < EXACT_INT {
        // Integral and exactly representable: render without a fraction.
        render_int(x as i64, out);
    } else {
        // Rust's Display for f64 is shortest-roundtrip.
        let _ = write!(out, "{x}");
    }
}

/// Decimal digits of `n`, as `Display` writes them, without the
/// formatting machinery.
fn render_int(n: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut m = n.unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

fn render_str(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Copy each run of bytes that need no escape with one `push_str`.
    // Every escaped byte is ASCII, so runs split on char boundaries.
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(k) = bytes[run..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        let i = run + k;
        out.push_str(&s[run..i]);
        let b = bytes[i];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting a [`Reader`] accepts. Decoding recurses
/// once per level, so without a cap a hostile file of `[[[[…` overflows
/// the stack and aborts the process instead of failing to parse. Real
/// documents (manifests, cache entries) nest a handful deep.
pub const MAX_DEPTH: usize = 128;

/// A validating cursor over JSON text: the crate's one JSON grammar.
///
/// Each method skips leading whitespace, consumes one token or value, and
/// returns `None` on a syntax error or a token of another kind; a `None`
/// leaves the cursor in an unspecified position, so callers give up on
/// the document. Containers are walked with [`begin_obj`](Self::begin_obj)
/// / [`next_key`](Self::next_key) and [`begin_arr`](Self::begin_arr) /
/// [`next_item`](Self::next_item), which also enforce [`MAX_DEPTH`].
///
/// ```
/// let mut r = serde::Reader::new(r#"{"a":[1,2],"b":"x"}"#);
/// r.begin_obj().unwrap();
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
/// assert_eq!(r.skip(), Some("[1,2]"));
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
/// assert_eq!(r.str().as_deref(), Some("x"));
/// assert_eq!(r.next_key(), Some(None));
/// assert_eq!(r.end(), Some(()));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// A container was just opened: its first member (or its close) is
    /// next, with no separating comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    #[inline]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let b = self.text.as_bytes();
        // Compact text, the common case, has no whitespace to skip.
        if b.get(self.pos).is_some_and(|&c| c > b' ') {
            return;
        }
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, lit: &str) -> Option<()> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// The first byte of the next value, without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Consume `null`.
    #[inline]
    pub fn null(&mut self) -> Option<()> {
        self.skip_ws();
        self.eat("null")
    }

    /// Consume `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        self.skip_ws();
        if self.eat("true").is_some() {
            Some(true)
        } else {
            self.eat("false").map(|()| false)
        }
    }

    /// Consume a number: an optional `-`, then the longest run of digits,
    /// `.`, `e`, `E`, `+` and `-`, which must parse as an `f64`.
    #[inline]
    pub fn num(&mut self) -> Option<f64> {
        self.num_token().map(|(x, _)| x)
    }

    /// [`num`](Self::num), and whether the token was a plain integer
    /// (so its value is known to be integral without testing it).
    #[inline]
    fn num_token(&mut self) -> Option<(f64, bool)> {
        self.skip_ws();
        let b = self.text.as_bytes();
        let start = self.pos;
        let neg = b.get(self.pos) == Some(&b'-');
        if neg {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut int = 0u64;
        while let Some(&c @ b'0'..=b'9') = b.get(self.pos) {
            int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        let n_digits = self.pos - digits;
        while self.pos < b.len() && matches!(b[self.pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        if self.pos == digits + n_digits && (1..=15).contains(&n_digits) {
            // Plain integer under 10^15: exact in an f64, and what the
            // general parser would return.
            let x = int as f64;
            return Some((if neg { -x } else { x }, true));
        }
        Some((self.text[start..self.pos].parse::<f64>().ok()?, false))
    }

    /// Consume a string. It is borrowed from the input when it holds no
    /// escape sequence.
    #[inline]
    pub fn str(&mut self) -> Option<Cow<'a, str>> {
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return None;
        }
        self.pos += 1;
        let start = self.pos;
        let end = self.run_end();
        if self.text.as_bytes().get(end) == Some(&b'"') {
            self.pos = end + 1;
            return Some(Cow::Borrowed(&self.text[start..end]));
        }
        let mut s = String::from(&self.text[start..end]);
        self.pos = end;
        self.string_body(Some(&mut s))?;
        Some(Cow::Owned(s))
    }

    /// The index of the next `"` or `\` at or after the cursor (the
    /// input's length if there is none).
    #[inline]
    fn run_end(&self) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos
            + rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(rest.len())
    }

    /// Scan a string's body up to and including its closing quote,
    /// decoding it into `out` when given.
    fn string_body(&mut self, mut out: Option<&mut String>) -> Option<()> {
        let b = self.text.as_bytes();
        loop {
            match *b.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(());
                }
                b'\\' => {
                    self.pos += 1;
                    let c = match *b.get(self.pos)? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            // Exactly four hex digits, no sign.
                            let cp = b
                                .get(self.pos + 1..self.pos + 5)?
                                .iter()
                                .try_fold(0, |cp, &h| Some(cp * 16 + (h as char).to_digit(16)?))?;
                            self.pos += 4;
                            char::from_u32(cp)?
                        }
                        _ => return None,
                    };
                    if let Some(s) = out.as_deref_mut() {
                        s.push(c);
                    }
                    self.pos += 1;
                }
                _ => {
                    // The run up to the next `"` or `\`: both are ASCII,
                    // so it ends on a char boundary of the `&str` input.
                    let end = self.run_end();
                    if let Some(s) = out.as_deref_mut() {
                        s.push_str(&self.text[self.pos..end]);
                    }
                    self.pos = end;
                }
            }
        }
    }

    #[inline]
    fn open(&mut self, delim: u8) -> Option<()> {
        self.skip_ws();
        if self.byte() != Some(delim) || self.depth >= MAX_DEPTH {
            return None;
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Some(())
    }

    /// Consume a container's separator or its closing `close`: `true`
    /// when a member follows.
    #[inline]
    fn next_member(&mut self, close: u8) -> Option<bool> {
        self.skip_ws();
        let b = self.byte()?;
        if b == close {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Some(false);
        }
        if std::mem::take(&mut self.fresh) {
            return Some(true);
        }
        if b != b',' {
            return None;
        }
        self.pos += 1;
        Some(true)
    }

    /// Consume the `{` that opens an object.
    #[inline]
    pub fn begin_obj(&mut self) -> Option<()> {
        self.open(b'{')
    }

    /// Consume the next key of the open object and its `:`, or the
    /// object's closing `}` (`Some(None)`).
    #[inline]
    pub fn next_key(&mut self) -> Option<Option<Cow<'a, str>>> {
        if !self.next_member(b'}')? {
            return Some(None);
        }
        let key = self.str()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return None;
        }
        self.pos += 1;
        Some(Some(key))
    }

    /// Consume the `[` that opens an array.
    #[inline]
    pub fn begin_arr(&mut self) -> Option<()> {
        self.open(b'[')
    }

    /// Consume the separator before the open array's next item (`true`)
    /// or the array's closing `]` (`false`).
    #[inline]
    pub fn next_item(&mut self) -> Option<bool> {
        self.next_member(b']')
    }

    /// Consume one value of any shape, validating it fully, and return
    /// its text.
    pub fn skip(&mut self) -> Option<&'a str> {
        let start = {
            self.skip_ws();
            self.pos
        };
        match self.byte()? {
            b'n' => self.null()?,
            b't' | b'f' => {
                self.bool()?;
            }
            b'"' => {
                self.pos += 1;
                self.string_body(None)?;
            }
            b'[' => {
                self.begin_arr()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            b'{' => {
                self.begin_obj()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            _ => {
                self.num()?;
            }
        }
        Some(&self.text[start..self.pos])
    }

    /// Succeed only if nothing but whitespace is left.
    #[inline]
    pub fn end(&mut self) -> Option<()> {
        self.skip_ws();
        (self.pos == self.text.len()).then_some(())
    }
}

/// A value that renders as JSON text.
pub trait Serialize {
    /// Append this value's JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// A value that decodes from JSON text.
pub trait Deserialize: Sized {
    /// Decode one value from `r`; `None` on a syntax error or a shape
    /// mismatch.
    fn read_json(r: &mut Reader<'_>) -> Option<Self>;

    /// Convert from a [`Json`] tree (rendered, then read back).
    fn from_json(v: &Json) -> Option<Self> {
        from_str(&v.render())
    }
}

/// Render any serializable value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> String {
    let mut s = String::new();
    v.write_json(&mut s);
    s
}

/// Parse a JSON string into a deserializable value; `None` on any syntax
/// error, shape mismatch or trailing garbage.
pub fn from_str<T: Deserialize>(s: &str) -> Option<T> {
    let mut r = Reader::new(s);
    let v = T::read_json(&mut r)?;
    r.end()?;
    Some(v)
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn write_json(&self, out: &mut String) {
                // What `render_num` writes for `*self as f64`, without
                // its float tests on the common, exactly representable
                // path.
                let x = *self as f64;
                if x.abs() < EXACT_INT {
                    render_int(*self as i64, out);
                } else {
                    render_num(x, out);
                }
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn read_json(r: &mut Reader<'_>) -> Option<Self> {
                let (x, plain) = r.num_token()?;
                if plain || (x.is_finite() && x == x.trunc()) {
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
    fn write_json(&self, out: &mut String) {
        render_num(*self, out);
    }
}

impl Deserialize for f64 {
    #[inline]
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        if r.peek()? == b'n' {
            r.null()?;
            Some(f64::NAN)
        } else {
            r.num()
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        render_num(*self as f64, out);
    }
}

impl Deserialize for f32 {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        f64::read_json(r).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    #[inline]
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.bool()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        render_str(self, out);
    }
}

impl Deserialize for String {
    #[inline]
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        render_str(self, out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ToOwned + ?Sized> Serialize for Cow<'_, T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.begin_arr()?;
        let mut items = Vec::new();
        while r.next_item()? {
            items.push(T::read_json(r)?);
        }
        Some(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        if r.peek()? == b'n' {
            r.null()?;
            Some(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.begin_arr()?;
        let a = item(r)?;
        let b = item(r)?;
        (!r.next_item()?).then_some((a, b))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(',');
        self.2.write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        r.begin_arr()?;
        let a = item(r)?;
        let b = item(r)?;
        let c = item(r)?;
        (!r.next_item()?).then_some((a, b, c))
    }
}

/// The next item of an open array, which must have one.
fn item<T: Deserialize>(r: &mut Reader<'_>) -> Option<T> {
    if r.next_item()? {
        T::read_json(r)
    } else {
        None
    }
}

impl Serialize for Duration {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"secs\":");
        self.as_secs().write_json(out);
        out.push_str(",\"nanos\":");
        self.subsec_nanos().write_json(out);
        out.push('}');
    }
}

impl Deserialize for Duration {
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let (mut secs, mut nanos) = (None, None);
        r.begin_obj()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "secs" if secs.is_none() => secs = Some(u64::read_json(r)?),
                "nanos" if nanos.is_none() => nanos = Some(u32::read_json(r)?),
                _ => {
                    r.skip()?;
                }
            }
        }
        Some(Duration::new(secs?, nanos?))
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
        assert_eq!(from_str::<(u8, u8)>("[1]"), None);
        assert_eq!(from_str::<(u8, u8)>("[1,2,3]"), None);
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
        assert_eq!(rendered, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(from_str::<String>(&rendered), Some(s));
    }

    #[test]
    fn integers_render_like_display() {
        for n in [0i64, 7, -7, 10, -10, 1_000_000, (1 << 53) - 1, -(1 << 53) + 1] {
            assert_eq!(to_string(&n), n.to_string());
        }
        assert_eq!(to_string(&(1u64 << 53)), "9007199254740992");
        assert_eq!(to_string(&-0.0f64), "0");
    }

    #[test]
    fn integers_render_and_read_as_through_f64() {
        // Integer types render as their `f64` value does and read back
        // through it: exact below 2^53, shortest float text above.
        let big = [
            0u64,
            1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            1 << 63,
            u64::MAX,
        ];
        for n in big {
            assert_eq!(to_string(&n), to_string(&(n as f64)), "{n}");
        }
        for n in [i64::MIN, -(1 << 53) - 1, -(1 << 53), -1, 0, 1 << 60, i64::MAX] {
            assert_eq!(to_string(&n), to_string(&(n as f64)), "{n}");
        }
        let via_f64 = |t: &str| {
            from_str::<f64>(t)
                .filter(|x| x.is_finite() && *x == x.trunc())
                .map(|x| x as u8)
        };
        for text in ["7", "7.0", "7e0", "7.5", "-0", "-5", "300", "1e400", "null", "123456789012345678"] {
            assert_eq!(from_str::<u8>(text), via_f64(text), "{text}");
        }
    }

    #[test]
    fn numbers_read_like_f64_parse() {
        for text in [
            "0", "-0", "7", "007", "123456789012345", "1234567890123456", "-12", "1.5", "1e3",
            "-2.5E-3", "+5", ".5", "5.",
        ] {
            let want = text.parse::<f64>().ok();
            let got = from_str::<f64>(text);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{text}");
        }
        for bad in ["-", "e", "1e", "--1", "1-", "inf", "NaN"] {
            assert_eq!(from_str::<f64>(bad), None, "{bad}");
        }
    }

    #[test]
    fn unescaped_strings_are_borrowed() {
        let mut r = Reader::new(r#" "plain" "esc\n" "#);
        assert!(matches!(r.str(), Some(Cow::Borrowed("plain"))));
        assert!(matches!(r.str().as_deref(), Some("esc\n")));
        assert_eq!(r.end(), Some(()));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#), Some(Json::Str("A".into())));
        assert_eq!(Json::parse(r#""\u00E9x""#), Some(Json::Str("éx".into())));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u004""#,
            r#""\u00"#,
            r#""\u"#,
            r#""\ud800""#,
        ] {
            assert_eq!(Json::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn string_runs_split_at_escapes() {
        let cases = [
            (r#""""#, ""),
            (r#""\nab""#, "\nab"),
            (r#""ab\n""#, "ab\n"),
            (r#""\n""#, "\n"),
            (r#""\"\\\/\t\u0001""#, "\"\\/\t\u{1}"),
            (r#""a\\b\"c""#, "a\\b\"c"),
            (r#""é\n😀\té""#, "é\n😀\té"),
            (r#""é日日""#, "é日日"),
        ];
        for (text, want) in cases {
            assert_eq!(Json::parse(text), Some(Json::Str(want.into())), "{text}");
            assert_eq!(Reader::new(text).skip(), Some(text), "{text}");
        }
        // Unterminated runs, with and without a trailing escape.
        for bad in [r#""abc"#, r#""é"#, r#""a\"#, r#""\""#] {
            assert_eq!(Json::parse(bad), None, "{bad}");
            assert_eq!(Reader::new(bad).skip(), None, "{bad}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["{", "[1,]", "[,1]", "{\"a\":1,}", "{,}", "1 2", "", "[1 2]", "{\"a\" 1}"] {
            assert_eq!(Json::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn structs_take_the_first_key_and_skip_the_rest() {
        let text = r#"{"nanos":5,"x":[{"y":null}],"secs":1,"nanos":7}"#;
        assert_eq!(from_str::<Duration>(text), Some(Duration::new(1, 5)));
        // Skipped members are still validated.
        assert_eq!(from_str::<Duration>(r#"{"secs":1,"nanos":5,"x":[1,]}"#), None);
        assert_eq!(from_str::<Duration>(r#"{"secs":1}"#), None);
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |d: usize| format!("{}0{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_some());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_none());
        assert!(Reader::new(&nested(MAX_DEPTH)).skip().is_some());
        assert!(Reader::new(&nested(MAX_DEPTH + 1)).skip().is_none());
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
