//! Hand-rolled JSON: a small value model, a writer, and a strict parser.
//!
//! The library crates stay dependency-free, so instead of `serde` this
//! module provides exactly what the suite needs: building JSON-lines
//! records for export and parsing them back in tests and the inspector.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    I64(i64),
    /// A float. Non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> JsonValue {
        JsonValue::I64(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        i64::try_from(v).map_or(JsonValue::F64(v as f64), JsonValue::I64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> JsonValue {
        JsonValue::I64(i64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::from(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::F64(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}

impl JsonValue {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<JsonValue>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> JsonValue {
        JsonValue::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers and floats both convert.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::I64(v) => Some(v as f64),
            JsonValue::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Integer view (floats only when they are exactly integral).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::I64(v) => Some(v),
            JsonValue::F64(v) if v.fract() == 0.0 && v.abs() < 9e15 => Some(v as i64),
            _ => None,
        }
    }

    /// Boolean view.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array view.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render to compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append compact JSON text to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::I64(v) => out.push_str(&v.to_string()),
            JsonValue::F64(v) => {
                if v.is_finite() {
                    // Guarantee a numeric token round-trips as a float or
                    // integer; Rust's Display for f64 is shortest-roundtrip.
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// Returns [`ParseError`] on malformed input.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Parse the JSON string that starts at byte `at` of `text`: its unescaped
/// value and the offset just past its closing quote. [`parse`] reads every
/// string the same way.
///
/// # Errors
/// Returns [`ParseError`] if no well-formed string starts at `at`.
pub fn parse_string_at(text: &str, at: usize) -> Result<(String, usize), ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: at,
    };
    let s = p.string()?;
    Ok((s, p.pos))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, s: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::I64(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| ParseError {
                at: start,
                msg: "invalid number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "he said \"hi\\there\"\n\tcol\u{0}umn\r\u{0c}\u{08}€";
        let v = JsonValue::obj([("k", nasty)]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("k").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn escapes_are_standard() {
        let mut out = String::new();
        write_escaped("a\"b\\c\nd\u{01}", &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn every_control_character_escapes_and_round_trips() {
        // All 32 C0 control characters, as both values and object keys.
        for cp in 0u32..0x20 {
            let c = char::from_u32(cp).unwrap();
            let s = format!("a{c}b");
            let v = JsonValue::obj([(s.as_str(), s.as_str())]);
            let text = v.render();
            // The raw control byte must never appear in the output.
            assert!(
                text.bytes().all(|b| b >= 0x20),
                "raw control byte 0x{cp:02x} leaked into: {text:?}"
            );
            let back = parse(&text).unwrap();
            assert_eq!(
                back.get(&s).unwrap().as_str(),
                Some(s.as_str()),
                "cp=0x{cp:02x}"
            );
        }
    }

    #[test]
    fn control_characters_use_short_escapes_where_standard() {
        // The named two-character escapes, not \u00XX.
        for (c, esc) in [
            ('\u{08}', r"\b"),
            ('\t', r"\t"),
            ('\n', r"\n"),
            ('\u{0c}', r"\f"),
            ('\r', r"\r"),
        ] {
            let mut out = String::new();
            write_escaped(&c.to_string(), &mut out);
            assert_eq!(out, format!("\"{esc}\""));
        }
        // Everything else in C0 uses \u00XX.
        let mut out = String::new();
        write_escaped("\u{1f}", &mut out);
        assert_eq!(out, "\"\\u001f\"");
        // Parser rejects raw (unescaped) control characters in strings.
        assert!(parse("\"a\u{01}b\"").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(JsonValue::from(42u64).render(), "42");
        assert_eq!(JsonValue::from(-7i64).render(), "-7");
        assert_eq!(JsonValue::from(1.5f64).render(), "1.5");
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
        assert_eq!(
            JsonValue::from(u64::MAX).render(),
            (u64::MAX as f64).to_string()
        );
        assert_eq!(parse("42").unwrap(), JsonValue::I64(42));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::F64(-1500.0));
        assert_eq!(
            parse("9999999999999999999999").unwrap(),
            JsonValue::F64(1e22)
        );
        assert_eq!(JsonValue::I64(3).as_i64(), Some(3));
        assert_eq!(JsonValue::F64(3.0).as_i64(), Some(3));
        assert_eq!(JsonValue::F64(3.5).as_i64(), None);
    }

    #[test]
    fn structures_round_trip() {
        let v = JsonValue::obj([
            ("s", JsonValue::from("x")),
            ("n", JsonValue::Null),
            ("b", JsonValue::from(true)),
            (
                "a",
                JsonValue::Arr(vec![1u64.into(), "two".into(), JsonValue::Arr(vec![])]),
            ),
            ("o", JsonValue::obj([("inner", 2.25f64)])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("o").unwrap().get("inner").unwrap().as_f64(),
            Some(2.25)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"bad\\q\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("A")
        );
    }
}
