//! # serde_derive (shim) — derives for the in-repo `serde` shim
//!
//! Generates `impl serde::Serialize` / `impl serde::Deserialize` for
//! named structs, tuple structs, and enums whose variants are unit,
//! tuple, or struct shaped — the shapes this workspace uses. The input
//! token stream is parsed directly (the environment has no `syn`/`quote`)
//! and the impl is emitted as source text.
//!
//! The impls stream: `write_json` appends literal keys and punctuation
//! around each field's own `write_json`, and `read_json` walks a
//! `serde::Reader` field by field. No `Json` tree is built either way.
//!
//! Encoding matches real serde's externally-tagged default:
//!
//! * named struct → `{"field": ...}` in declaration order;
//! * newtype struct → the inner value;
//! * tuple struct → `[...]`;
//! * unit enum variant → `"Variant"`;
//! * newtype variant → `{"Variant": value}`;
//! * tuple variant → `{"Variant": [...]}`;
//! * struct variant → `{"Variant": {...}}`.
//!
//! Decoding accepts object members in any order. The first occurrence
//! of a field's key wins; later duplicates and unknown keys are skipped,
//! though still validated; every field is required; tuples and tuple
//! variants need exactly their arity; a tagged variant is an object of
//! exactly one member.
//!
//! Generics are not supported; the derive panics with a clear message if
//! it meets them, which surfaces as a compile error at the derive site.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What the type under derive looks like.
enum Shape {
    /// `struct S { a: T, b: U }`
    NamedStruct(Vec<String>),
    /// `struct S(T, U);` — field count only.
    TupleStruct(usize),
    /// `enum E { ... }`
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_type(input);
    gen_serialize(&name, &shape).parse().unwrap()
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_type(input);
    gen_deserialize(&name, &shape).parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_type(input: TokenStream) -> (String, Shape) {
    let mut iter = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    let mut keyword = None;
    while let Some(tt) = iter.next() {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Attribute: consume the following [...] group.
                let _ = iter.next();
            }
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    keyword = Some(s);
                    break;
                }
                // `pub` or other modifiers: skip, plus a possible
                // `(crate)`-style restriction group.
                if s == "pub" {
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            let _ = iter.next();
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let keyword = keyword.expect("serde shim derive: expected `struct` or `enum`");
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (type `{name}`)");
        }
    }
    let shape = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if keyword == "struct" {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            } else {
                Shape::Enum(parse_variants(g.stream()))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            assert_eq!(keyword, "struct", "serde shim derive: malformed enum");
            Shape::TupleStruct(count_tuple_fields(g.stream()))
        }
        other => panic!("serde shim derive: unsupported type body: {other:?}"),
    };
    (name, shape)
}

/// Parse `a: T, b: U, ...` field lists, returning field names in order.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        let name = loop {
            match iter.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let _ = iter.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            let _ = iter.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => {
                    panic!("serde shim derive: unexpected token in field list: {other}")
                }
            }
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after `{name}`, got {other:?}"),
        }
        fields.push(name);
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle = 0i32;
        for tt in iter.by_ref() {
            match tt {
                TokenTree::Punct(p) => match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                },
                _ => {}
            }
        }
    }
}

/// Count the fields of a tuple struct/variant body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_any = false;
    let mut angle = 0i32;
    let mut expecting = true; // true right after `(` or a separator comma
    for tt in body {
        saw_any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    expecting = true;
                    continue;
                }
                _ => {}
            }
        }
        if expecting {
            count += 1;
            expecting = false;
        }
    }
    if saw_any {
        count
    } else {
        0
    }
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        let name = loop {
            match iter.next() {
                None => return variants,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let _ = iter.next();
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => {
                    panic!("serde shim derive: unexpected token in enum body: {other}")
                }
            }
        };
        let kind = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                iter.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                iter.next();
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Consume up to and including the separating comma (also skips
        // explicit discriminants, which the shim does not interpret).
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// `text` as a Rust string literal.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// Statements appending `open`, then each `(key, expr)` item as `key`
/// followed by the expression's JSON, comma-separated, then `close`.
/// Adjacent literal text is merged into one `push_str`.
fn stream(open: &str, items: &[(String, String)], close: &str) -> String {
    let mut code = String::new();
    let mut text = open.to_string();
    for (i, (key, expr)) in items.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(key);
        code.push_str(&format!("out.push_str({});", lit(&text)));
        code.push_str(&format!("::serde::Serialize::write_json({expr}, out);"));
        text.clear();
    }
    text.push_str(close);
    code.push_str(&format!("out.push_str({});", lit(&text)));
    code
}

/// The JSON key prefix `"name":` of an object member.
fn key(name: &str) -> String {
    format!("\"{name}\":")
}

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let items: Vec<_> = fields
                .iter()
                .map(|f| (key(f), format!("&self.{f}")))
                .collect();
            stream("{", &items, "}")
        }
        Shape::TupleStruct(1) => "::serde::Serialize::write_json(&self.0, out);".to_string(),
        Shape::TupleStruct(n) => {
            let items: Vec<_> = (0..*n)
                .map(|i| (String::new(), format!("&self.{i}")))
                .collect();
            stream("[", &items, "]")
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let tag = key(vn);
                    match &v.kind {
                        VariantKind::Unit => {
                            format!("{name}::{vn} => out.push_str({}),", lit(&format!("\"{vn}\"")))
                        }
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vn}(f0) => {{ {} }}",
                            stream(&format!("{{{tag}"), &[(String::new(), "f0".into())], "}")
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<_> =
                                binds.iter().map(|b| (String::new(), b.clone())).collect();
                            format!(
                                "{name}::{vn}({}) => {{ {} }}",
                                binds.join(", "),
                                stream(&format!("{{{tag}["), &items, "]}")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds: Vec<String> = fields
                                .iter()
                                .enumerate()
                                .map(|(i, f)| format!("{f}: f{i}"))
                                .collect();
                            let items: Vec<_> = fields
                                .iter()
                                .enumerate()
                                .map(|(i, f)| (key(f), format!("f{i}")))
                                .collect();
                            format!(
                                "{name}::{vn} {{ {} }} => {{ {} }}",
                                binds.join(", "),
                                stream(&format!("{{{tag}{{"), &items, "}}")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         \x20   fn write_json(&self, out: &mut ::std::string::String) {{ {body} }}\n\
         }}"
    )
}

/// Statements decoding an object into `f0..` (first occurrence of each
/// key wins; other keys are skipped but validated), and the expression
/// building `path { field: f0?, .. }` from them.
fn read_struct(path: &str, fields: &[String]) -> (String, String) {
    let mut stmts: String = (0..fields.len())
        .map(|i| format!("let mut f{i} = ::std::option::Option::None;"))
        .collect();
    stmts.push_str("r.begin_obj()?;");
    if fields.is_empty() {
        stmts.push_str("while r.next_key()?.is_some() { r.skip()?; }");
    } else {
        let arms: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "{} if f{i}.is_none() => f{i} = ::std::option::Option::Some(::serde::Deserialize::read_json(r)?),",
                    lit(f)
                )
            })
            .collect();
        stmts.push_str(&format!(
            "while let ::std::option::Option::Some(key) = r.next_key()? {{ \
             match &*key {{ {arms} _ => {{ r.skip()?; }} }} }}"
        ));
    }
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{f}: f{i}?"))
        .collect();
    (stmts, format!("{path} {{ {} }}", inits.join(", ")))
}

/// Statements decoding an array of exactly `n` items into `f0..`, and
/// the expression building `path(f0, ..)` from them.
fn read_tuple(path: &str, n: usize) -> (String, String) {
    let mut stmts = String::from("r.begin_arr()?;");
    for i in 0..n {
        stmts.push_str(&format!(
            "if !r.next_item()? {{ return ::std::option::Option::None; }} \
             let f{i} = ::serde::Deserialize::read_json(r)?;"
        ));
    }
    stmts.push_str("if r.next_item()? { return ::std::option::Option::None; }");
    let binds: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    (stmts, format!("{path}({})", binds.join(", ")))
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let (stmts, expr) = read_struct(name, fields);
            format!("{stmts} ::std::option::Option::Some({expr})")
        }
        Shape::TupleStruct(1) => {
            format!("::std::option::Option::Some({name}(::serde::Deserialize::read_json(r)?))")
        }
        Shape::TupleStruct(n) => {
            let (stmts, expr) = read_tuple(name, *n);
            format!("{stmts} ::std::option::Option::Some({expr})")
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            let units: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    format!(
                        "{} => ::std::option::Option::Some({name}::{}),",
                        lit(&v.name),
                        v.name
                    )
                })
                .collect();
            if !units.is_empty() {
                arms.push_str(&format!(
                    "b'\"' => {{ let tag = r.str()?; \
                     match &*tag {{ {units} _ => ::std::option::Option::None }} }}"
                ));
            }
            let tagged: String = variants
                .iter()
                .filter_map(|v| {
                    let path = format!("{name}::{}", v.name);
                    let value = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => {
                            format!("{path}(::serde::Deserialize::read_json(r)?)")
                        }
                        VariantKind::Tuple(n) => {
                            let (stmts, expr) = read_tuple(&path, *n);
                            format!("{{ {stmts} {expr} }}")
                        }
                        VariantKind::Struct(fields) => {
                            let (stmts, expr) = read_struct(&path, fields);
                            format!("{{ {stmts} {expr} }}")
                        }
                    };
                    Some(format!("{} => {value},", lit(&v.name)))
                })
                .collect();
            if !tagged.is_empty() {
                // `{"Variant": value}`: exactly one member.
                arms.push_str(&format!(
                    "b'{{' => {{ r.begin_obj()?; let tag = r.next_key()??; \
                     let v = match &*tag {{ {tagged} _ => return ::std::option::Option::None }}; \
                     if r.next_key()?.is_some() {{ return ::std::option::Option::None; }} \
                     ::std::option::Option::Some(v) }}"
                ));
            }
            format!("match r.peek()? {{ {arms} _ => ::std::option::Option::None }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         \x20   fn read_json(r: &mut ::serde::Reader<'_>) -> ::std::option::Option<Self> {{ {body} }}\n\
         }}"
    )
}
