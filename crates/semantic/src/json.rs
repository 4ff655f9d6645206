//! A minimal JSON reader/writer.
//!
//! Kept in-tree so the ARML wire format has no external dependency; see
//! DESIGN.md. Supports the full JSON data model with the usual escapes
//! (RFC 8259 strings: raw control characters are rejected and escaped
//! surrogate pairs join into one character); numbers are `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::SemanticError;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input (a long run
/// of `[`) from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (sorted keys, so output is canonical).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonParse`] with the byte offset of the problem,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, SemanticError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters"));
        }
        Ok(v)
    }

    /// Serialises to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Convenience: the value as an object map.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonShape`] when the value is not an object.
    pub fn as_object(&self) -> Result<&BTreeMap<String, JsonValue>, SemanticError> {
        match self {
            JsonValue::Object(m) => Ok(m),
            other => Err(SemanticError::JsonShape(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }

    /// Convenience: the value as an array.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonShape`] when the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue], SemanticError> {
        match self {
            JsonValue::Array(a) => Ok(a),
            other => Err(SemanticError::JsonShape(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// Convenience: the value as a string slice.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonShape`] when the value is not a string.
    pub fn as_str(&self) -> Result<&str, SemanticError> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(SemanticError::JsonShape(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// Convenience: the value as a number.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonShape`] when the value is not a number.
    pub fn as_f64(&self) -> Result<f64, SemanticError> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(SemanticError::JsonShape(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// Fetches a required object field.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonShape`] when absent or not an object.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a JsonValue, SemanticError> {
        self.as_object()?
            .get(name)
            .ok_or_else(|| SemanticError::JsonShape(format!("missing field {name:?}")))
    }

    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

fn write_string(s: &str, out: &mut String) {
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

fn err(offset: usize, message: &str) -> SemanticError {
    SemanticError::JsonParse {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, nested `depth` arrays/objects deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, SemanticError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(err(*pos, "nesting too deep")),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, SemanticError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

/// Parses a number of RFC 8259's grammar,
/// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`; anything after
/// the longest such prefix is left for the caller.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, SemanticError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    let eat = |pos: &mut usize, set: &[u8]| {
        let hit = b.get(*pos).is_some_and(|c| set.contains(c));
        *pos += usize::from(hit);
        hit
    };
    let minus = eat(pos, b"-");
    let int = match b.get(*pos) {
        Some(b'0') => eat(pos, b"0"),
        Some(b'1'..=b'9') => digits(pos),
        _ if minus => false,
        _ => return Err(err(start, "expected a value")),
    };
    // A fraction or exponent, once begun, needs at least one digit.
    let frac = if eat(pos, b".") { digits(pos) } else { true };
    let exp = if eat(pos, b"eE") {
        eat(pos, b"+-");
        digits(pos)
    } else {
        true
    };
    if !(int && frac && exp) {
        return Err(err(start, "invalid number"));
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(JsonValue::Number)
        .ok_or_else(|| err(start, "invalid number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, SemanticError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos)?;
                        // A high surrogate joins the low one escaped right
                        // after it; a lone surrogate decodes to U+FFFD.
                        if (0xD800..0xDC00).contains(&code)
                            && b.get(*pos + 5..*pos + 7) == Some(b"\\u".as_slice())
                        {
                            if let Ok(low @ 0xDC00..=0xDFFF) = hex4(b, *pos + 6) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(0..0x20) => return Err(err(*pos, "unescaped control character")),
            Some(_) => {
                // Copy the run up to the next quote, escape or control
                // character in one go. All are ASCII, so the run ends on a
                // char boundary and every byte is validated once.
                let end = b[*pos..]
                    .iter()
                    .position(|c| matches!(c, b'"' | b'\\' | 0..0x20))
                    .map_or(b.len(), |n| *pos + n);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|e| err(*pos + e.valid_up_to(), "invalid utf-8"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

/// The code unit of the `\u` escape whose `u` is at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, SemanticError> {
    let hex = b
        .get(at + 1..at + 5)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    std::str::from_utf8(hex)
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| err(at, "invalid \\u escape"))
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, SemanticError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, SemanticError> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -1.5e2 ").unwrap(),
            JsonValue::Number(-150.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": "x"}], "c": null}"#).unwrap();
        let a = v.field("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].field("b").unwrap().as_str().unwrap(), "x");
        assert_eq!(v.field("c").unwrap(), &JsonValue::Null);
    }

    #[test]
    fn round_trips() {
        let docs = [
            r#"{"a":[1,2.5,{"b":"x"}],"c":null,"d":true}"#,
            r#"[]"#,
            r#"{}"#,
            r#"{"s":"quote \" backslash \\ newline \n"}"#,
            r#"[0,-1,123456789]"#,
        ];
        for d in docs {
            let v = JsonValue::parse(d).unwrap();
            let text = v.to_json();
            let again = JsonValue::parse(&text).unwrap();
            assert_eq!(v, again, "round trip of {d}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = JsonValue::parse(r#""Aé""#).unwrap();
        assert_eq!(v, JsonValue::String("Aé".into()));
        // Non-ASCII passes through raw too.
        let v = JsonValue::parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo");
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_are_replaced() {
        let parse = |doc: &str| JsonValue::parse(doc).unwrap();
        assert_eq!(parse(r#""\ud83d\ude00""#), JsonValue::from("\u{1F600}"));
        assert_eq!(parse(r#""a\uD83D\uDE00b""#), JsonValue::from("a\u{1F600}b"));
        assert_eq!(parse(r#""\ud83d""#), JsonValue::from("\u{FFFD}"));
        assert_eq!(
            parse(r#""\ude00\ud83d""#),
            JsonValue::from("\u{FFFD}\u{FFFD}")
        );
        assert_eq!(parse(r#""\ud83dA\u0041""#), JsonValue::from("\u{FFFD}AA"));
        assert_eq!(parse(r#""\ud83d\u0041""#), JsonValue::from("\u{FFFD}A"));
        assert!(JsonValue::parse(r#""\ud83d\uZZZZ""#).is_err());
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for doc in ["\"a\u{0001}b\"", "\"a\nb\"", "\"a\tb\"", "[\"\u{001F}\"]"] {
            match JsonValue::parse(doc) {
                Err(SemanticError::JsonParse { offset, .. }) => {
                    assert_eq!(offset, doc.find(|c: char| c < ' ').unwrap());
                }
                other => panic!("{doc:?}: expected a parse error, got {other:?}"),
            }
        }
        // Whitespace between tokens and escaped control characters stay valid.
        assert!(JsonValue::parse("[\n\t\"a\\u0001\\n\"\r\n]").is_ok());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (doc, n) in [
            ("-0", -0.0),
            ("0", 0.0),
            ("1.5e-3", 1.5e-3),
            ("1E+2", 100.0),
            ("10", 10.0),
            ("-0.25", -0.25),
            ("2e0", 2.0),
        ] {
            assert_eq!(
                JsonValue::parse(doc).unwrap(),
                JsonValue::Number(n),
                "{doc}"
            );
        }
        for doc in [
            "+1", ".5", "1.", "01", "-", "1e", "--1", "-01", "1e+", "1.e2", "-.5", "[1.]", "00",
        ] {
            assert!(JsonValue::parse(doc).is_err(), "{doc} must not parse");
        }
    }

    #[test]
    fn error_offsets_are_reported() {
        let e = JsonValue::parse(r#"{"a" 1}"#).unwrap_err();
        match e {
            SemanticError::JsonParse { offset, .. } => assert_eq!(offset, 5),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} x").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("1e999").is_err(), "non-finite rejected");
    }

    #[test]
    fn shape_helpers() {
        let v = JsonValue::parse(r#"{"n": 3}"#).unwrap();
        assert_eq!(v.field("n").unwrap().as_f64().unwrap(), 3.0);
        assert!(v.field("missing").is_err());
        assert!(v.as_array().is_err());
        assert!(JsonValue::Null.as_object().is_err());
        assert!(JsonValue::Bool(true).as_str().is_err());
    }

    #[test]
    fn canonical_object_key_order() {
        let v = JsonValue::parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        match JsonValue::parse(&deep) {
            Err(SemanticError::JsonParse { offset, .. }) => assert_eq!(offset, MAX_DEPTH),
            other => panic!("expected a depth error, got {other:?}"),
        }
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&objects).is_err());
        // Exactly at the limit still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn megabyte_string_parses() {
        let body: String = "aé\u{1F600}\\\"".repeat(1 << 17);
        let doc = JsonValue::String(body.clone()).to_json();
        assert!(doc.len() > 1 << 20, "{} bytes", doc.len());
        assert_eq!(JsonValue::parse(&doc).unwrap(), JsonValue::String(body));
    }

    #[test]
    fn control_characters_escaped_on_write() {
        let v = JsonValue::String("\u{0001}".into());
        assert_eq!(v.to_json(), "\"\\u0001\"");
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }
}
