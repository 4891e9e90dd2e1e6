//! Minimal zero-dependency JSON support shared by the probe subsystem
//! ([`crate::probe`]) and the benchmark harness.
//!
//! Two halves:
//!
//! * [`JsonBuf`] — a streaming *writer* with automatic comma handling,
//!   full string escaping, and round-trippable float formatting (Rust's
//!   shortest-representation `{:?}` form, which `str::parse::<f64>`
//!   recovers bit-exactly). Non-finite floats become `null` — JSON has no
//!   NaN/Inf — so emitters never produce invalid documents.
//! * [`Json`] — a small recursive-descent *parser* producing a value tree,
//!   used by the `la_bench` benchmark and by the tests that read back what
//!   the writer emitted.
//!
//! Both are deliberately tiny: the repo is hermetic (no serde), and every
//! JSON document we read or write is machine-generated by this same pair,
//! so `parse(write(x)) == x` is the contract — see the round-trip tests.

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming JSON writer. Push containers and values; commas and `:` are
/// inserted automatically. Finish with [`JsonBuf::into_string`], which
/// asserts every container was closed.
///
/// ```
/// use la_core::json::JsonBuf;
/// let mut j = JsonBuf::new();
/// j.begin_obj();
/// j.key("op");
/// j.str("gemm");
/// j.key("ms");
/// j.num(1.25);
/// j.end_obj();
/// assert_eq!(j.into_string(), r#"{"op":"gemm","ms":1.25}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// One entry per open container: `true` once the container has at
    /// least one element (so the next element needs a comma).
    stack: Vec<bool>,
}

impl JsonBuf {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the document.
    ///
    /// # Panics
    /// If a container opened with `begin_obj`/`begin_arr` was never closed.
    pub fn into_string(self) -> String {
        assert!(self.stack.is_empty(), "JsonBuf: unclosed container");
        self.out
    }

    fn comma(&mut self) {
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) {
        self.comma();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.stack
            .pop()
            .expect("JsonBuf: end_obj with no container");
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) {
        self.comma();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.stack
            .pop()
            .expect("JsonBuf: end_arr with no container");
        self.out.push(']');
    }

    /// Emits an object key; the next pushed value becomes its value.
    pub fn key(&mut self, k: &str) {
        self.comma();
        escape_into(&mut self.out, k);
        self.out.push(':');
        // The key consumed the comma slot; the value that follows must not
        // add another, so mark the container as "element pending".
        if let Some(has_elems) = self.stack.last_mut() {
            *has_elems = false;
        }
        // Restore after the value: handled by the value's `comma()` call
        // setting it back to true.
    }

    /// Emits a string value (escaped).
    pub fn str(&mut self, v: &str) {
        self.comma();
        escape_into(&mut self.out, v);
    }

    /// Emits a float value in round-trippable shortest form; non-finite
    /// values become `null`.
    pub fn num(&mut self, v: f64) {
        self.comma();
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Emits an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.comma();
        let _ = write!(self.out, "{v}");
    }

    /// Emits a signed integer value.
    pub fn int(&mut self, v: i64) {
        self.comma();
        let _ = write!(self.out, "{v}");
    }

    /// Emits a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.comma();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emits `null`.
    pub fn null(&mut self) {
        self.comma();
        self.out.push_str("null");
    }

    /// `key(k)` followed by `str(v)`.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str(v);
    }

    /// `key(k)` followed by `num(v)`.
    pub fn field_num(&mut self, k: &str, v: f64) {
        self.key(k);
        self.num(v);
    }

    /// `key(k)` followed by `uint(v)`.
    pub fn field_uint(&mut self, k: &str, v: u64) {
        self.key(k);
        self.uint(v);
    }
}

/// Writes `s` as a quoted, escaped JSON string into `out`.
fn escape_into(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which round-trips every value
    /// [`JsonBuf`] emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.ws();
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            out.push((k, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.ws();
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.ws();
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.ws();
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.i += 1;
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                self.i -= 1; // hex4 advances past the 'u'
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad \\u escape at {}", self.i))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape; on entry `self.i` points
    /// at the `u`.
    fn hex4(&mut self) -> Result<u32, String> {
        self.i += 1; // past 'u'
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.i += 3; // caller advances the final byte
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_basic_structure() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_str("name", "x");
        j.key("list");
        j.begin_arr();
        j.uint(1);
        j.uint(2);
        j.begin_obj();
        j.field_num("v", 0.5);
        j.end_obj();
        j.end_arr();
        j.key("ok");
        j.boolean(true);
        j.key("none");
        j.null();
        j.end_obj();
        assert_eq!(
            j.into_string(),
            r#"{"name":"x","list":[1,2,{"v":0.5}],"ok":true,"none":null}"#
        );
    }

    #[test]
    fn writer_escapes_strings() {
        let mut j = JsonBuf::new();
        j.str("a\"b\\c\nd\te\u{1}");
        let s = j.into_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        // And the parser recovers the original.
        assert_eq!(
            Json::parse(&s).unwrap(),
            Json::Str("a\"b\\c\nd\te\u{1}".into())
        );
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for &v in &[
            0.0,
            -0.0,
            1.0,
            1.25,
            1.0 / 3.0,
            -2.2250738585072014e-308,
            5e-324,
            1.7976931348623157e308,
            98.33,
            std::f64::consts::PI,
        ] {
            let mut j = JsonBuf::new();
            j.num(v);
            let s = j.into_string();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {s} -> {back}");
        }
        // Non-finite values degrade to null rather than invalid JSON.
        let mut j = JsonBuf::new();
        j.num(f64::NAN);
        assert_eq!(j.into_string(), "null");
    }

    #[test]
    fn parser_handles_nesting_and_unicode() {
        let v = Json::parse(r#" { "a": [1, -2.5e3, "é😀"], "b": {} } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2500.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("é😀")
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("trug").is_err());
    }
}
