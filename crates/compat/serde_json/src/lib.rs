//! Vendored JSON layer over the serde facade: prints and parses the
//! [`serde::Content`] tree. Mirrors the small part of the real `serde_json`
//! API the workspace uses (`to_string`, `to_string_pretty`, `from_str`).
//! Non-string map keys are stringified exactly like real `serde_json`
//! (integers become quoted numbers); other non-string keys are an error.

use serde::{Content, Deserialize, Serialize};
use std::fmt;

/// JSON error type.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let content = serde::to_content(value)?;
    let mut out = String::new();
    write_content(&mut out, &content, None, 0)?;
    Ok(out)
}

/// Serialize a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let content = serde::to_content(value)?;
    let mut out = String::new();
    write_content(&mut out, &content, Some(2), 0)?;
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut parser = Parser::new(s);
    parser.skip_ws();
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != s.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    serde::from_content(content).map_err(Into::into)
}

// ---------------------------------------------------------------------------
// printing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn key_string(key: &Content) -> Result<String> {
    match key {
        Content::Str(s) => Ok(s.clone()),
        Content::I64(v) => Ok(v.to_string()),
        Content::U64(v) => Ok(v.to_string()),
        Content::Bool(b) => Ok(b.to_string()),
        other => Err(Error::new(format!(
            "map key must be a string or integer, got {other:?}"
        ))),
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
}

fn write_content(
    out: &mut String,
    content: &Content,
    indent: Option<usize>,
    depth: usize,
) -> Result<()> {
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if v.is_finite() {
                out.push_str(&format!("{v:?}"));
            } else {
                // Real serde_json refuses non-finite floats; emit null instead.
                out.push_str("null");
            }
        }
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space
                    }
                }
                newline_indent(out, indent, depth + 1);
                write_content(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, &key_string(k)?);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(out, v, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------------

/// Containers may nest this deep, as in real `serde_json`; deeper input is an
/// error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    /// True when the unread input starts with `prefix`.
    fn at(&self, prefix: &str) -> bool {
        self.src
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(prefix.as_bytes()))
    }

    fn keyword(&mut self, kw: &str, value: Content) -> Result<Content> {
        if self.at(kw) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::new(format!("bad literal at offset {}", self.pos)))
        }
    }

    /// Step into a container, refusing input nested past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => self.keyword("null", Content::Null),
            Some(b't') => self.keyword("true", Content::Bool(true)),
            Some(b'f') => self.keyword("false", Content::Bool(false)),
            Some(b'"') => Ok(Content::Str(self.parse_string()?)),
            Some(b'[') => {
                self.descend()?;
                let items = self.parse_array()?;
                self.depth -= 1;
                Ok(Content::Seq(items))
            }
            Some(b'{') => {
                self.descend()?;
                let entries = self.parse_object()?;
                self.depth -= 1;
                Ok(Content::Map(entries))
            }
            Some(_) => self.parse_number(),
        }
    }

    /// The elements after an opening `[`, through the closing `]`.
    fn parse_array(&mut self) -> Result<Vec<Content>> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(Error::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    /// The entries after an opening `{`, through the closing `}`.
    fn parse_object(&mut self) -> Result<Vec<(Content, Content)>> {
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(entries);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((Content::Str(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(entries);
                }
                _ => return Err(Error::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            // Both are ASCII, so the run ends on a char boundary of the
            // (already valid) source text.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the backslash
    /// on entry and just past the escape on return.
    fn parse_escape(&mut self) -> Result<char> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                self.pos += 1;
                return self.parse_unicode_escape();
            }
            other => return Err(Error::new(format!("bad escape: {other:?}"))),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Four hex digits at `pos`.
    fn hex4(&mut self) -> Result<u32> {
        let bad = || Error::new("bad \\u escape");
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(bad)?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| bad())
    }

    /// A `\uXXXX` escape after its `\u`: a code point of the basic plane, or
    /// a high surrogate that must be followed by the `\uXXXX` of a low one.
    fn parse_unicode_escape(&mut self) -> Result<char> {
        let lone = |code: u32| Error::new(format!("lone surrogate \\u{code:04x} in string"));
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.at("\\u") {
                    return Err(lone(high));
                }
                self.pos += 2;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(lone(high)),
                }
            }
            low @ 0xDC00..=0xDFFF => return Err(lone(low)),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| Error::new("bad \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') || b.is_ascii_digit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() {
            return Err(Error::new(format!(
                "unexpected character at offset {start}"
            )));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}
