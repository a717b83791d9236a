//! The mutation operators the JSON differential tests share: real
//! documents damaged byte by byte, the way a crash, a bad disk or a hand
//! edit would.

/// Characters mutations insert: JSON punctuation, escape and literal
/// letters, digits and number signs, whitespace, and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '0', '1', '9', 'a', 'F', '-', '+', '.', 'e', 'E',
    'n', 't', 'f', 'l', 's', 'r', 'b', '/', ' ', '\n', '\t', 'é', '😀', '\u{1}',
];

/// Apply one mutation to `text` at a char-aligned position: `op` picks
/// delete / insert / replace / duplicate / truncate / swap-halves, or one
/// of three that aim at container syntax: insert `,` before the next
/// closing bracket, insert a character after the next opening bracket or
/// comma, or delete up to the next separator or closing bracket.
pub fn mutate(text: &str, op: u8, at: f64, len: usize, ch: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let i = ((at * n as f64) as usize).min(n);
    let j = (i + len).min(n);
    let c = ALPHABET[ch % ALPHABET.len()];
    let next = |set: &[char]| (i..n).find(|&k| set.contains(&chars[k])).unwrap_or(n);
    let mut out: Vec<char> = match op {
        0 => [&chars[..i], &chars[j..]].concat(),
        1 => [&chars[..i], &[c][..], &chars[i..]].concat(),
        2 => [&chars[..i], &[c][..], &chars[(i + 1).min(n)..]].concat(),
        3 => [&chars[..j], &chars[i..]].concat(),
        4 => chars[..i].to_vec(),
        5 => [&chars[i..], &chars[..i]].concat(),
        6 => {
            let k = next(&[']', '}']);
            [&chars[..k], &[','][..], &chars[k..]].concat()
        }
        7 => {
            let k = (next(&['[', '{', ',']) + 1).min(n);
            [&chars[..k], &[c][..], &chars[k..]].concat()
        }
        _ => [&chars[..i], &chars[next(&[',', ']', '}'])..]].concat(),
    };
    out.truncate(1 << 16);
    out.into_iter().collect()
}

/// The members of the JSON object `text` as (key JSON, value JSON)
/// pairs in document order, or `None` if `text` is not one object.
pub fn members(text: &str) -> Option<Vec<(String, String)>> {
    let mut r = serde::Reader::new(text);
    let mut out = Vec::new();
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        out.push((serde::to_string(&*key), r.skip()?.to_string()));
    }
    r.end()?;
    Some(out)
}

/// Render `members` back into an object.
pub fn object(members: &[(String, String)]) -> String {
    let body: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Every reordering and duplication of `text`'s members worth trying:
/// each rotation, the reversal, each adjacent swap, and each member
/// repeated first or last, as it is and with its value mistyped (so the
/// first occurrence of a key must decide).
pub fn reorderings(text: &str) -> Vec<String> {
    let Some(m) = members(text) else {
        return Vec::new();
    };
    let n = m.len();
    let mut out = Vec::new();
    for k in 1..n {
        let mut r = m.clone();
        r.rotate_left(k);
        out.push(object(&r));
    }
    out.push(object(&m.iter().rev().cloned().collect::<Vec<_>>()));
    for k in 0..n.saturating_sub(1) {
        let mut r = m.clone();
        r.swap(k, k + 1);
        out.push(object(&r));
    }
    for (key, value) in &m {
        for dup in [value.clone(), "\"x\"".to_string()] {
            let member = (key.clone(), dup);
            out.push(object(&[&[member.clone()][..], &m].concat()));
            out.push(object(&[&m[..], &[member]].concat()));
        }
    }
    out
}
