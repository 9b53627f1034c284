//! One JSON value, one deterministic writer and one strict RFC 8259
//! parser — the workspace carries no serde.
//!
//! Every machine-readable artifact (serve summaries, trace exports,
//! bench summaries, planner frontiers, verification reports) is built
//! as a [`Json`] value and written once, and every reader looks fields
//! up in a parsed value. Objects are ordered vectors, so output order is
//! build order. A [`Number`] keeps the exact text it was built or parsed
//! from: the builder fixes each number's printed precision, and
//! `parse(write(v)) == v` holds for every value.

use std::fmt;

/// Nesting the parser accepts; deeper documents are rejected, which
/// bounds its recursion on untrusted input.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its text.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: members in build (or document) order, keys unique.
    Object(Vec<(String, Json)>),
}

/// A JSON number, held as valid RFC 8259 number text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Number(Number(n.to_string()))
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl Json {
    /// `value` printed with `decimals` fractional digits (`{:.N}`);
    /// `null` when it is not finite, which JSON cannot express.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Number(Number(format!("{value:.decimals$}")))
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` members, in order.
    ///
    /// # Panics
    ///
    /// Panics on a repeated key, which no artifact may carry.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        let mut out: Vec<(String, Json)> = Vec::new();
        for (key, value) in members {
            let key = key.into();
            assert!(out.iter().all(|(k, _)| *k != key), "duplicate key `{key}`");
            out.push((key, value));
        }
        Json::Object(out)
    }

    /// The member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// A number's value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// A number's value when its text is a `u64` integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The value with no whitespace at all, e.g. `{"a":1,"b":[true]}`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        out
    }

    /// The value as a newline-terminated document: one member per line
    /// at two-space indentation, except that an array element holding
    /// no array is written on one line — one record per line in sweeps,
    /// span logs and bench lists.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Block(0));
        out + "\n"
    }

    /// Parses one JSON document under RFC 8259, strictly: no trailing
    /// commas, comments, single quotes, `NaN`, leading zeros, lone
    /// surrogates, duplicate keys or trailing text.
    ///
    /// # Errors
    ///
    /// Returns the byte offset of the first violation and its reason.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos < text.len() {
            return Err(parser.error("trailing text after the document"));
        }
        Ok(value)
    }

    fn holds_array(&self) -> bool {
        match self {
            Json::Array(_) => true,
            Json::Object(members) => members.iter().any(|(_, v)| v.holds_array()),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, layout: Layout) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => return out.push_str(&n.0),
            Json::String(s) => return write_str(out, s),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', members.collect())
            }
        };
        let colon = if let Layout::Compact = layout {
            ":"
        } else {
            ": "
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(match (i, layout) {
                (0, Layout::Block(_)) => "\n",
                (_, Layout::Block(_)) => ",\n",
                (0, _) => "",
                (_, Layout::Line) => ", ",
                (_, Layout::Compact) => ",",
            });
            let inner = match layout {
                Layout::Block(indent) => {
                    out.extend(std::iter::repeat_n(' ', indent + 2));
                    // An array element holding no array fits one line.
                    if key.is_none() && !value.holds_array() {
                        Layout::Line
                    } else {
                        Layout::Block(indent + 2)
                    }
                }
                other => other,
            };
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(colon);
            }
            value.write(out, inner);
        }
        if let (Layout::Block(indent), false) = (layout, members.is_empty()) {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        }
        out.push(close);
    }
}

/// How the writer lays out a container.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// One line, no whitespace.
    Compact,
    /// One line, a space after each `,` and `:`.
    Line,
    /// One member per line, the container indented by this many columns.
    Block(usize),
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the first violation.
    pub offset: usize,
    /// What the parser expected there.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> ParseError {
        let offset = self.pos;
        ParseError { offset, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        let literals = [
            ("null", Json::Null),
            ("true", true.into()),
            ("false", false.into()),
        ];
        for (word, value) in literals {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Json::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Json)> = Vec::new();
                self.members(b'}', |p| {
                    p.skip_ws();
                    let key_at = p.pos;
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a string key"));
                    }
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        p.pos = key_at;
                        return Err(p.error("duplicate key"));
                    }
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            _ => Err(self.error("expected a value")),
        }
    }

    /// Parses the comma-separated members of a container whose opening
    /// bracket is at the cursor, through the `close` bracket.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or a closing bracket"));
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.error("expected a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.error("expected an exponent digit"));
            }
        }
        Ok(Json::Number(Number(self.text[start..self.pos].to_string())))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte;
            // all three are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape sequence after the backslash at the cursor.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'u') => return self.unicode_escape(),
            Some(b @ (b'"' | b'\\' | b'/')) => char::from(b),
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the `uXXXX` at the cursor, joining a UTF-16 surrogate
    /// pair; `char::from_u32` refuses every surrogate left unpaired.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let at = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 1;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        let reason = "lone surrogate";
        char::from_u32(code).ok_or(ParseError { offset: at, reason })
    }

    /// Reads the `uXXXX` at the cursor.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.text.get(self.pos + 1..self.pos + 5);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 5;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A nested value drawn from `words`: strings mix escapes, control
    /// characters and non-ASCII text; numbers span `u64::MAX`,
    /// negatives, exponents and fixed-precision fractions.
    fn arbitrary(words: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
        const CHARS: [char; 12] = [
            'a', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '量', '😀', ' ',
        ];
        let word = words.next().unwrap_or(0);
        let text = |w: u64| -> String {
            (0..w % 6)
                .map(|i| CHARS[((w >> (4 * i + 8)) % 12) as usize])
                .collect()
        };
        let number = |text: String| Json::Number(Number(text));
        match (word % 9, depth < 4) {
            (0, _) => Json::Null,
            (1, _) => Json::Bool(word & 16 != 0),
            (2, _) => Json::from(u64::MAX - (word >> 40)),
            (3, _) => number(format!("-{}", (word >> 8) % 1_000_000 + 1)),
            (4, _) => number(format!("-{}.{}e{}", word % 97, word % 13, word % 400)),
            (5, _) => Json::fixed((word >> 11) as f64 / 1024.0, (word % 7) as usize),
            (6, true) => Json::Array((0..word % 5).map(|_| arbitrary(words, depth + 1)).collect()),
            (7, true) => Json::Object(
                (0..word % 5)
                    .map(|i| {
                        (
                            format!("{}{i}", text(word >> 3)),
                            arbitrary(words, depth + 1),
                        )
                    })
                    .collect(),
            ),
            _ => Json::String(text(word)),
        }
    }

    proptest! {
        #[test]
        fn parse_inverts_both_writers(words in prop::collection::vec(any::<u64>(), 1..64)) {
            let value = arbitrary(&mut words.into_iter(), 0);
            prop_assert_eq!(Json::parse(&value.pretty()), Ok(value.clone()));
            prop_assert_eq!(Json::parse(&value.compact()), Ok(value));
        }
    }

    #[test]
    fn strict_parser_rejects_what_rfc_8259_forbids() {
        let deep = "[".repeat(MAX_DEPTH + 2);
        for (doc, reason) in [
            ("[1, 2,]", "expected a value"),
            ("{\"a\": 1,}", "expected a string key"),
            ("{'a': 1}", "expected a string key"),
            ("['a']", "expected a value"),
            ("NaN", "expected a value"),
            ("[-Infinity]", "expected a digit"),
            ("01", "trailing text after the document"),
            ("[-012]", "expected `,` or a closing bracket"),
            ("1.", "expected a fraction digit"),
            ("1e+", "expected an exponent digit"),
            ("\"abc", "unterminated string"),
            ("\"a\tb\"", "unescaped control character in string"),
            ("\"\\x\"", "invalid escape"),
            ("\"\\u12g4\"", "expected four hex digits"),
            ("\"\\ud800\"", "lone surrogate"),
            ("\"\\udc00\\ud800\"", "lone surrogate"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\" 1}", "expected `:`"),
            ("{\"a\": 1} x", "trailing text after the document"),
            ("[1] // comment", "trailing text after the document"),
            ("", "expected a value"),
            (deep.as_str(), "nesting too deep"),
        ] {
            assert_eq!(Json::parse(doc).map_err(|e| e.reason), Err(reason), "{doc}");
        }
    }

    #[test]
    fn writer_layouts_and_number_text_are_pinned() {
        let row = Json::object([
            ("a", 1u64.into()),
            ("b", Json::object([("c", true.into())])),
        ]);
        let doc = Json::object([
            ("n", Json::fixed(2.0, 2)),
            ("nan", Json::fixed(f64::NAN, 1)),
            ("rows", Json::Array(vec![row])),
            ("tags", Json::Array(vec!["x".into()])),
            ("empty", Json::Object(Vec::new())),
        ]);
        let pretty = "{\n  \"n\": 2.00,\n  \"nan\": null,\n  \"rows\": [\n    {\"a\": 1, \"b\": {\"c\": true}}\n  ],\n  \
                      \"tags\": [\n    \"x\"\n  ],\n  \"empty\": {}\n}\n";
        assert_eq!(doc.pretty(), pretty);
        let compact =
            r#"{"n":2.00,"nan":null,"rows":[{"a":1,"b":{"c":true}}],"tags":["x"],"empty":{}}"#;
        assert_eq!(doc.compact(), compact);
        let parsed =
            Json::parse(" {\"s\": \"\\u00e9\\ud83d\\ude00\\/\", \"x\": -0.5E+2} ").unwrap();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some("é😀/"));
        assert_eq!(parsed.get("x").and_then(Json::as_f64), Some(-50.0));
        assert_eq!(parsed.get("x").and_then(Json::as_u64), None);
    }
}
