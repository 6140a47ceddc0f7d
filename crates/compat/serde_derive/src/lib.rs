//! Hand-rolled `#[derive(Serialize, Deserialize)]` for the vendored serde
//! facade. No `syn`/`quote`: the item is parsed directly from the
//! `proc_macro` token stream and the impl is generated as source text.
//!
//! Supported shapes (everything this workspace derives on):
//! * structs with named fields (field attrs: `#[serde(skip)]`,
//!   `#[serde(serialize_with = "path", deserialize_with = "path")]`);
//! * tuple structs (single-field newtypes serialize transparently, larger
//!   ones as sequences);
//! * unit structs;
//! * enums with unit / tuple / struct variants, externally tagged exactly
//!   like real serde (`"Variant"`, `{"Variant": value}`, `{"Variant": [..]}`,
//!   `{"Variant": {..}}`).
//!
//! Generic items are unsupported and produce a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default, Clone)]
struct FieldAttrs {
    skip: bool,
    serialize_with: Option<String>,
    deserialize_with: Option<String>,
}

struct NamedField {
    name: String,
    attrs: FieldAttrs,
}

enum Body {
    Unit,
    /// Tuple body with the number of fields.
    Tuple(usize),
    Named(Vec<NamedField>),
}

struct Variant {
    name: String,
    body: Body,
}

enum Item {
    Struct {
        name: String,
        body: Body,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---------------------------------------------------------------------------
// token-stream parsing
// ---------------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn is_punct(&self, ch: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ch)
    }

    fn is_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == word)
    }

    /// Consume leading attributes, returning the parsed serde field attrs.
    fn take_attrs(&mut self) -> FieldAttrs {
        let mut attrs = FieldAttrs::default();
        while self.is_punct('#') {
            self.next();
            // `#![..]` inner attributes cannot appear here; outer only.
            match self.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    parse_serde_attr(g.stream(), &mut attrs);
                }
                other => panic!("serde_derive: malformed attribute: {other:?}"),
            }
        }
        attrs
    }

    /// Consume `pub`, `pub(..)` if present.
    fn skip_visibility(&mut self) {
        if self.is_ident("pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }

    fn expect_ident(&mut self) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde_derive: expected identifier, found {other:?}"),
        }
    }

    /// Skip a type (or expression) until a top-level `,` — angle brackets are
    /// balanced so `BTreeMap<K, V>` is treated as one type.
    fn skip_until_toplevel_comma(&mut self) {
        let mut angle_depth = 0i32;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth <= 0 => return,
                _ => {}
            }
            self.next();
        }
    }
}

fn parse_serde_attr(stream: TokenStream, attrs: &mut FieldAttrs) {
    let mut it = stream.into_iter();
    match it.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
        _ => return, // doc comment or unrelated attribute
    }
    let Some(TokenTree::Group(g)) = it.next() else {
        return;
    };
    // Inside: `skip`, `serialize_with = "path"`, `deserialize_with = "path"`,
    // comma separated, possibly spanning lines.
    let mut inner = g.stream().into_iter().peekable();
    while let Some(tok) = inner.next() {
        let TokenTree::Ident(key) = tok else { continue };
        match key.to_string().as_str() {
            "skip" => attrs.skip = true,
            key @ ("serialize_with" | "deserialize_with") => {
                // expect `=` then a string literal
                let Some(TokenTree::Punct(_)) = inner.next() else {
                    panic!("serde_derive: expected `=` after {key}");
                };
                let Some(TokenTree::Literal(lit)) = inner.next() else {
                    panic!("serde_derive: expected string after {key} =");
                };
                let path = lit.to_string().trim_matches('"').to_string();
                if key == "serialize_with" {
                    attrs.serialize_with = Some(path);
                } else {
                    attrs.deserialize_with = Some(path);
                }
            }
            "default" => {} // tolerated: missing fields already fall back below
            other => panic!("serde_derive: unsupported serde attribute `{other}`"),
        }
    }
}

fn count_toplevel_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_any = false;
    let mut angle_depth = 0i32;
    let mut pending = false;
    for t in stream {
        saw_any = true;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth <= 0 => {
                count += 1;
                pending = false;
                continue;
            }
            _ => {}
        }
        pending = true;
    }
    if pending || (saw_any && count == 0) {
        count += 1;
    }
    count
}

fn parse_named_fields(stream: TokenStream) -> Vec<NamedField> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let attrs = cur.take_attrs();
        cur.skip_visibility();
        let name = cur.expect_ident();
        // `:` then the type.
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field `{name}`, found {other:?}"),
        }
        cur.skip_until_toplevel_comma();
        if cur.is_punct(',') {
            cur.next();
        }
        fields.push(NamedField { name, attrs });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    while !cur.at_end() {
        let _attrs = cur.take_attrs();
        let name = cur.expect_ident();
        let body = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_toplevel_fields(g.stream());
                cur.next();
                Body::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                cur.next();
                Body::Named(fields)
            }
            _ => Body::Unit,
        };
        // Skip an explicit discriminant `= expr` if present.
        if cur.is_punct('=') {
            cur.next();
            cur.skip_until_toplevel_comma();
        }
        if cur.is_punct(',') {
            cur.next();
        }
        variants.push(Variant { name, body });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut cur = Cursor::new(input);
    cur.take_attrs();
    cur.skip_visibility();
    let kind = cur.expect_ident();
    let name = cur.expect_ident();
    if cur.is_punct('<') {
        panic!("serde_derive: generic types are not supported by the vendored derive");
    }
    match kind.as_str() {
        "struct" => {
            let body = match cur.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Tuple(count_toplevel_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
                other => panic!("serde_derive: unsupported struct body: {other:?}"),
            };
            Item::Struct { name, body }
        }
        "enum" => {
            let variants = match cur.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    parse_variants(g.stream())
                }
                other => panic!("serde_derive: unsupported enum body: {other:?}"),
            };
            Item::Enum { name, variants }
        }
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

// ---------------------------------------------------------------------------
// code generation
// ---------------------------------------------------------------------------

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match item {
        Item::Struct { name, body } => gen_struct_serialize(&name, &body),
        Item::Enum { name, variants } => gen_enum_serialize(&name, &variants),
    };
    code.parse().expect("serde_derive: generated invalid Rust")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match item {
        Item::Struct { name, body } => gen_struct_deserialize(&name, &body),
        Item::Enum { name, variants } => gen_enum_deserialize(&name, &variants),
    };
    code.parse().expect("serde_derive: generated invalid Rust")
}

fn gen_struct_serialize(name: &str, body: &Body) -> String {
    let build = match body {
        Body::Unit => "serde::Content::Null".to_string(),
        Body::Tuple(1) => "serde::to_content(&self.0)?".to_string(),
        Body::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::to_content(&self.{i})?"))
                .collect();
            format!("serde::Content::Seq(vec![{}])", items.join(", "))
        }
        Body::Named(fields) => {
            let mut entries = Vec::new();
            for f in fields {
                if f.attrs.skip {
                    continue;
                }
                let value = match &f.attrs.serialize_with {
                    Some(path) => format!("{path}(&self.{}, serde::ContentSerializer)?", f.name),
                    None => format!("serde::to_content(&self.{})?", f.name),
                };
                entries.push(format!(
                    "(serde::Content::Str(\"{n}\".to_string()), {value})",
                    n = f.name
                ));
            }
            format!("serde::Content::Map(vec![{}])", entries.join(", "))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize<S: serde::Serializer>(&self, serializer: S) -> core::result::Result<S::Ok, S::Error> {{\n\
         let content = {build};\n\
         serializer.serialize_content(content)\n\
         }}\n\
         }}"
    )
}

/// Generates the expression list that serializes bound variables `f0..fN`.
fn tuple_payload(n: usize) -> (String, String) {
    let binders: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let items: Vec<String> = binders
        .iter()
        .map(|b| format!("serde::to_content({b})?"))
        .collect();
    (binders.join(", "), items.join(", "))
}

fn gen_enum_serialize(name: &str, variants: &[Variant]) -> String {
    let mut arms = Vec::new();
    for v in variants {
        let vn = &v.name;
        let arm = match &v.body {
            Body::Unit => format!(
                "{name}::{vn} => serde::Content::Str(\"{vn}\".to_string()),"
            ),
            Body::Tuple(1) => format!(
                "{name}::{vn}(f0) => serde::Content::Map(vec![(serde::Content::Str(\"{vn}\".to_string()), serde::to_content(f0)?)]),"
            ),
            Body::Tuple(n) => {
                let (binders, items) = tuple_payload(*n);
                format!(
                    "{name}::{vn}({binders}) => serde::Content::Map(vec![(serde::Content::Str(\"{vn}\".to_string()), serde::Content::Seq(vec![{items}]))]),"
                )
            }
            Body::Named(fields) => {
                let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let entries: Vec<String> = fields
                    .iter()
                    .filter(|f| !f.attrs.skip)
                    .map(|f| {
                        format!(
                            "(serde::Content::Str(\"{n}\".to_string()), serde::to_content({n})?)",
                            n = f.name
                        )
                    })
                    .collect();
                format!(
                    "{name}::{vn} {{ {binders} }} => serde::Content::Map(vec![(serde::Content::Str(\"{vn}\".to_string()), serde::Content::Map(vec![{entries}]))]),",
                    binders = binders.join(", "),
                    entries = entries.join(", ")
                )
            }
        };
        arms.push(arm);
    }
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize<S: serde::Serializer>(&self, serializer: S) -> core::result::Result<S::Ok, S::Error> {{\n\
         let content = match self {{\n{arms}\n}};\n\
         serializer.serialize_content(content)\n\
         }}\n\
         }}",
        arms = arms.join("\n")
    )
}

/// A block that moves the named fields out of the map `source` and evaluates
/// to `Ok(ctor { .. })`; `not_map` is the message when `source` is no map.
fn named_body(ctor: &str, fields: &[NamedField], source: &str, not_map: &str) -> String {
    let mut inits = Vec::new();
    for f in fields {
        let n = &f.name;
        let init = if f.attrs.skip {
            format!("{n}: core::default::Default::default(),")
        } else if let Some(path) = &f.attrs.deserialize_with {
            format!(
                "{n}: {path}(serde::take_field(&mut entries, \"{n}\").unwrap_or(serde::Content::Null))?,"
            )
        } else {
            format!(
                "{n}: match serde::take_field(&mut entries, \"{n}\") {{\n\
                 Some(v) => serde::from_content(v)?,\n\
                 None => serde::from_content(serde::Content::Null).map_err(|_| serde::Error::custom(format!(\"missing field `{n}` in {ctor}\")))?,\n\
                 }},"
            )
        };
        inits.push(init);
    }
    format!(
        "{{\n\
         let serde::Content::Map(mut entries) = {source} else {{ return Err(serde::Error::custom(\"{not_map}\").into()); }};\n\
         let _ = &mut entries;\n\
         Ok({ctor} {{\n{inits}\n}})\n\
         }}",
        inits = inits.join("\n")
    )
}

/// A block that moves the `n` elements out of the sequence `source` and
/// evaluates to `Ok(ctor(..))`; `not_seq` and `bad_arity` are the messages
/// when `source` is no sequence or has another length.
fn tuple_body(ctor: &str, n: usize, source: &str, not_seq: &str, bad_arity: &str) -> String {
    let items = vec!["serde::from_content(items.next().expect(\"arity checked\"))?"; n].join(", ");
    format!(
        "{{\n\
         let serde::Content::Seq(items) = {source} else {{ return Err(serde::Error::custom(\"{not_seq}\").into()); }};\n\
         if items.len() != {n} {{ return Err(serde::Error::custom(\"{bad_arity}\").into()); }}\n\
         let mut items = items.into_iter();\n\
         Ok({ctor}({items}))\n\
         }}"
    )
}

fn gen_struct_deserialize(name: &str, body: &Body) -> String {
    let build = match body {
        Body::Unit => format!("{{ let _ = content; Ok({name}) }}"),
        Body::Tuple(1) => format!("Ok({name}(serde::from_content(content)?))"),
        Body::Tuple(n) => tuple_body(
            name,
            *n,
            "content",
            &format!("expected sequence for {name}"),
            &format!("wrong tuple arity for {name}"),
        ),
        Body::Named(fields) => {
            named_body(name, fields, "content", &format!("expected map for {name}"))
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
         fn deserialize<'de, D: serde::Deserializer<'de>>(deserializer: D) -> core::result::Result<Self, D::Error> {{\n\
         let content = deserializer.into_content()?;\n\
         {build}\n\
         }}\n\
         }}"
    )
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = Vec::new();
    let mut tagged_arms = Vec::new();
    for v in variants {
        let vn = &v.name;
        let ctor = format!("{name}::{vn}");
        match &v.body {
            Body::Unit => unit_arms.push(format!("\"{vn}\" => return Ok({ctor}),")),
            Body::Tuple(1) => tagged_arms.push(format!(
                "\"{vn}\" => return Ok({ctor}(serde::from_content(payload)?)),"
            )),
            Body::Tuple(n) => tagged_arms.push(format!(
                "\"{vn}\" => return {},",
                tuple_body(
                    &ctor,
                    *n,
                    "payload",
                    &format!("expected sequence payload for {ctor}"),
                    &format!("wrong arity for {ctor}"),
                )
            )),
            Body::Named(fields) => tagged_arms.push(format!(
                "\"{vn}\" => return {},",
                named_body(
                    &ctor,
                    fields,
                    "payload",
                    &format!("expected map payload for {ctor}"),
                )
            )),
        }
    }
    // A bare string names a unit variant; a one-entry map is `{{tag: payload}}`
    // and the payload is moved out of it.
    format!(
        "impl serde::Deserialize for {name} {{\n\
         fn deserialize<'de, D: serde::Deserializer<'de>>(deserializer: D) -> core::result::Result<Self, D::Error> {{\n\
         match deserializer.into_content()? {{\n\
         serde::Content::Str(tag) => match tag.as_str() {{\n{unit_arms}\n_ => {{}}\n}},\n\
         serde::Content::Map(mut tagged) if tagged.len() == 1 => {{\n\
         if let Some((serde::Content::Str(tag), payload)) = tagged.pop() {{\n\
         let _ = &payload;\n\
         match tag.as_str() {{\n{tagged_arms}\n_ => {{}}\n}}\n\
         }}\n\
         }}\n\
         _ => {{}}\n\
         }}\n\
         Err(serde::Error::custom(\"no variant of {name} matched\").into())\n\
         }}\n\
         }}",
        unit_arms = unit_arms.join("\n"),
        tagged_arms = tagged_arms.join("\n")
    )
}
