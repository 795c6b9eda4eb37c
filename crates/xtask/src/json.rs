//! Minimal JSON reader for xtask's own file formats.
//!
//! The workspace vendors no JSON crate, and xtask only ever consumes JSON
//! that `anubis-obs` produced: trace JSONL lines. This is a small recursive-descent parser
//! over that well-formed subset — strict enough to reject garbage with a
//! byte-offset error, simple enough to audit at a glance. Numbers are
//! parsed as `f64`; object keys keep first-wins semantics in a `BTreeMap`
//! (duplicate keys never occur in our own output).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; keys sorted, first occurrence wins.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Looks up `key` in an object; `None` for non-objects too.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj().and_then(|map| map.get(key))
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b) if *b == b'-' || b.is_ascii_digit() => parse_number(bytes, pos),
        Some(b) => Err(format!("unexpected byte {b:#04x} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogate halves (never produced by our writers)
                        // degrade to U+FFFD rather than erroring out.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar; `bytes` came from a `str`, so a
                // char boundary always exists at or before `pos + 4`.
                let rest = &bytes[*pos..];
                let text = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                if let Some(c) = text.chars().next() {
                    out.push(c);
                    *pos += c.len_utf8();
                } else {
                    return Err("unterminated string".to_owned());
                }
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume `[`
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            other => return Err(format!("expected `,` or `]`, found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume `{`
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        map.entry(key).or_insert(value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            other => return Err(format!("expected `,` or `}}`, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_header_line() {
        let v = parse(r#"{"schema":1,"records":4,"dropped":0}"#).expect("valid");
        assert_eq!(v.get("schema").and_then(JsonValue::as_num), Some(1.0));
        assert_eq!(v.get("records").and_then(JsonValue::as_num), Some(4.0));
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a":[1,-2.5,1e3,true,null],"s":"x\n\"A"}"#).expect("valid");
        let arr = match v.get("a") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[1].as_num(), Some(-2.5));
        assert_eq!(arr[2].as_num(), Some(1000.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\n\"A"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_unicode_text() {
        let v = parse("{\"s\":\"héllo→\"}").expect("valid");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("héllo→"));
    }

    #[test]
    fn decodes_every_simple_escape() {
        let v = parse(r#"{"s":"\"\\\/\n\r\t\b\f"}"#).expect("valid");
        assert_eq!(
            v.get("s").and_then(JsonValue::as_str),
            Some("\"\\/\n\r\t\u{8}\u{c}")
        );
    }

    #[test]
    fn decodes_unicode_escapes_and_degrades_surrogates() {
        let v = parse(r#"{"s":"Aé→"}"#).expect("valid");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("Aé→"));
        // A lone surrogate half never appears in our own writers' output;
        // it decodes to U+FFFD instead of failing the whole document.
        let v = parse(r#""\ud800""#).expect("valid");
        assert_eq!(v.as_str(), Some("\u{fffd}"));
        assert!(parse(r#""\u00"#).is_err(), "truncated \\u escape");
        assert!(parse(r#""\u00zz""#).is_err(), "non-hex \\u escape");
        assert!(parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn parses_nested_arrays_to_depth() {
        let v = parse("[[1,[2,[3,[]]]],[4]]").expect("valid");
        let JsonValue::Arr(outer) = &v else {
            panic!("expected array, got {v:?}");
        };
        assert_eq!(outer.len(), 2);
        let JsonValue::Arr(first) = &outer[0] else {
            panic!("expected nested array");
        };
        assert_eq!(first[0].as_num(), Some(1.0));
        let JsonValue::Arr(second) = &first[1] else {
            panic!("expected nested array");
        };
        assert_eq!(second[0].as_num(), Some(2.0));
        assert_eq!(
            second[1],
            JsonValue::Arr(vec![JsonValue::Num(3.0), JsonValue::Arr(Vec::new())])
        );
    }

    #[test]
    fn rejects_truncation_everywhere() {
        for text in [
            "",
            "{",
            "{\"k\"",
            "{\"k\":",
            "{\"k\":1",
            "{\"k\":1,",
            "[",
            "[1",
            "[1,",
            "tru",
            "-",
            "\"\\",
        ] {
            assert!(parse(text).is_err(), "`{text}` must not parse");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let v = parse(r#"{"k":1,"k":2,"other":3}"#).expect("valid");
        assert_eq!(v.get("k").and_then(JsonValue::as_num), Some(1.0));
        assert_eq!(v.get("other").and_then(JsonValue::as_num), Some(3.0));
        assert_eq!(v.as_obj().map(BTreeMap::len), Some(2));
    }
}
