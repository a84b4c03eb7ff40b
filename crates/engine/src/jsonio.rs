//! A minimal JSON reader for the serving protocol (std-only; the
//! workspace takes no serde dependency).
//!
//! The *writer* side of the protocol is hand-rolled string building in
//! byte-stable key order, same discipline as `nuspi_diagnostics::to_json`
//! — this module only adds the [`escape`] helper for it. The *reader*
//! side is a small recursive-descent parser into [`Json`], enough to
//! decode request lines: all of RFC 8259 except that numbers are read as
//! `f64` (request fields are small non-negative integers, so nothing is
//! lost). Nesting is capped at [`MAX_DEPTH`] levels so adversarially
//! deep input yields an error line instead of exhausting the stack.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is an
    /// integral number in `u64` range. The bound is strict: `u64::MAX
    /// as f64` rounds *up* to 2^64, so `<=` would admit 2^64 and
    /// silently saturate it to `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The items of a string array, if this is one.
    pub fn as_str_arr(&self) -> Option<Vec<String>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_str().map(str::to_owned))
            .collect()
    }
}

/// Maximum container-nesting depth the parser accepts. Deeper input is
/// rejected with an error, never a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-ascii \\u escape".to_owned())?;
        let v = u16::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
        self.pos = end;
        Ok(v)
    }

    /// Reads a string literal. Each maximal run of bytes other than `"`
    /// and `\` is copied with one `push_str`: both delimiters are ASCII,
    /// so a run starts and ends on a char boundary of the `&str` input
    /// and needs no re-validation.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.src[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at the other delimiter, a backslash.
                Some(_) => {
                    self.pos += 1;
                    self.unescape_into(&mut out)?;
                }
            }
        }
    }

    /// Decodes one escape; `pos` is just past its backslash.
    fn unescape_into(&mut self, out: &mut String) -> Result<(), String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_into(out);
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Decodes a `\uXXXX` escape (`pos` is just past the `u`) the way
    /// `String::from_utf16_lossy` decodes its code units: a high surrogate
    /// directly followed by a `\u` low surrogate combines into one scalar;
    /// any other surrogate becomes U+FFFD, and a `\u` escape after an
    /// unpaired high half is then decoded on its own.
    fn unicode_into(&mut self, out: &mut String) -> Result<(), String> {
        let mut unit = self.hex4()?;
        while (0xd800..0xdc00).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let next = self.hex4()?;
            if (0xdc00..0xe000).contains(&next) {
                let combined =
                    0x10000 + ((u32::from(unit) - 0xd800) << 10) + (u32::from(next) - 0xdc00);
                out.push(char::from_u32(combined).unwrap_or('\u{fffd}'));
                return Ok(());
            }
            out.push('\u{fffd}');
            unit = next;
        }
        out.push(char::from_u32(u32::from(unit)).unwrap_or('\u{fffd}'));
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes a string for a JSON string literal (control characters,
/// quotes, backslashes; non-ASCII passes through as UTF-8). Same
/// discipline as the diagnostics backend, so embedded reports and
/// protocol fields escape identically. Every escaped character is
/// ASCII, so the verbatim runs between them are copied as slices.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"op":"audit","secrets":["k","m"],"deadline_ms":250}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("audit"));
        assert_eq!(
            v.get("secrets").and_then(Json::as_str_arr),
            Some(vec!["k".to_owned(), "m".to_owned()])
        );
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        let pair = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(pair.as_str(), Some("🦀"));
    }

    #[test]
    fn escape_then_parse_is_identity() {
        let original = "line1\nline2\t\"quoted\" \\ ζ(ℓ#3) \u{1}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        let Json::Obj(fields) = v else { panic!() };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
    }
}
