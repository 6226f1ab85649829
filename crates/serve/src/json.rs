//! A minimal hand-rolled JSON reader/writer for the wire protocol.
//!
//! The build environment is hermetic (no crates.io), so instead of serde
//! this module implements the small JSON subset the protocol needs:
//! objects, arrays, strings, finite numbers, booleans, and null. Parsing
//! is strict — trailing garbage, NaN/Infinity literals, and unterminated
//! tokens are errors — because a daemon must never guess at malformed
//! client input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN or infinities).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so serialization is
    /// deterministic — handy for tests and reproducible logs.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere or when absent.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects 1.5, -1, and anything beyond 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&v) && v.fract() == 0.0 {
            Some(v as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON text. Object keys come
    /// out sorted (the map is a BTreeMap), so rendering is deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Maximum container nesting the parser accepts. Recursion descends one
/// stack frame per `[`/`{`, so without a limit a remote line of tens of
/// thousands of opening brackets overflows the IO thread's stack and
/// aborts the whole daemon. The protocol needs depth 4.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document from `input`. Anything but
/// whitespace after the document is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!(
                "expected '{}' at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Bumps the nesting depth on container entry; errors past
    /// [`MAX_DEPTH`] instead of recursing toward a stack overflow.
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ))
        } else {
            Ok(())
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // protocol; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or("surrogate \\u escapes are unsupported")?;
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control byte in string".into()),
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // backslash or control byte as one slice of the input.
                    // Those bytes are ASCII, so the run ends on a character
                    // boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let plain = self.text.get(self.pos..self.pos + run);
                    out.push_str(plain.ok_or("invalid utf-8")?);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        // A '-' inside an exponent (1e-3) is consumed here too.
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'e' | b'E' | b'.')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let v: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        Ok(Json::Num(v))
    }
}

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"frame": "enumerate", "n": 4, "edges": [[0,1],[1,2]], "cache": true, "deadline_ms": null}"#)
            .expect("valid json");
        assert_eq!(v.get("frame").and_then(Json::as_str), Some("enumerate"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        let edges = v.get("edges").and_then(Json::as_arr).expect("array");
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].as_arr().expect("pair")[1].as_u64(), Some(1));
        assert_eq!(v.get("cache").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("deadline_ms"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("NaN").is_err());
        assert!(parse("1e999").is_err(), "overflow to infinity is rejected");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // One past the limit is an error, not a recursive descent: a
        // hostile line of 100k brackets must not overflow the stack.
        let too_deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&too_deep).is_err());
        let hostile = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(parse(&hostile).is_err());
        let mixed = "{\"a\":".repeat(100_000);
        assert!(parse(&mixed).is_err());
        // ... while the limit itself still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
    }

    #[test]
    fn strings_round_trip_through_escape() {
        let original = "a \"quoted\"\\backslash\nnewline\ttab\u{1}ctrl";
        let wire = format!("\"{}\"", escape(original));
        let back = parse(&wire).expect("valid");
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A string that fills the daemon's input cap: re-validating the rest
        // of the line per character took tens of seconds at this length.
        let len = crate::server::MAX_INBUF - 16;
        let body = "é".repeat(len / 4) + &"a".repeat(len / 2);
        let wire = format!("{{\"s\":\"{body}\\n\"}}");
        let started = std::time::Instant::now();
        let value = parse(&wire).expect("valid");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "took {:?}",
            started.elapsed()
        );
        assert_eq!(
            value.get("s").and_then(Json::as_str),
            Some(body + "\n").as_deref()
        );
    }

    #[test]
    fn numbers_parse_with_exponents_and_fractions() {
        assert_eq!(parse("-2.5e2").expect("num").as_f64(), Some(-250.0));
        assert_eq!(parse("0").expect("num").as_u64(), Some(0));
        assert_eq!(parse("1.5").expect("num").as_u64(), None);
        assert_eq!(parse("-1").expect("num").as_u64(), None);
    }

    #[test]
    fn render_round_trips() {
        let text = r#"{"b":[1,2.5,null],"a":{"x":"y\n"},"c":true}"#;
        let v = parse(text).expect("valid");
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("valid"), v);
        // Keys render sorted, so serialization is canonical.
        assert!(rendered.find("\"a\"").expect("a") < rendered.find("\"b\"").expect("b"));
    }
}
