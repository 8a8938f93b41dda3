//! A minimal JSON reader for the repo's own result files.
//!
//! The workspace is dependency-free on purpose (CI runs
//! `CARGO_NET_OFFLINE=true`), so the `regress` comparator cannot pull in
//! `serde_json`. This is the small fraction of JSON it actually needs:
//! parse a complete value, walk objects/arrays, read numbers and
//! strings. It accepts exactly the RFC 8259 grammar (no trailing
//! commas, no comments) and keeps numbers as `f64` — every number the
//! bench writer emits fits losslessly.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (the bench writer emits it for NaN/absent measurements).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (surrounding whitespace ok).
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Shorthand: member `key` as a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Shorthand: member `key` as a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            members.push((k, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by `\uXXXX` with the low half.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.b.get(self.i + 1) != Some(&b'\\')
                                    || self.b.get(self.i + 2) != Some(&b'u')
                                {
                                    return Err(format!("lone high surrogate at byte {}", self.i));
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("bad low surrogate at byte {}", self.i));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(
                                c.ok_or_else(|| format!("invalid code point at byte {}", self.i))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.i))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid; find the scalar's width).
                    let start = self.i;
                    self.i += 1;
                    while self.b.get(self.i).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                }
            }
        }
    }

    /// Reads `XXXX` after a `\u` (cursor on the last hex digit's byte).
    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .b
            .get(self.i + 1..self.i + 5)
            .and_then(|w| std::str::from_utf8(w).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.i))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nb\u0041\u00e9""#).unwrap(),
            Json::Str("a\nbAé".into())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
    }

    #[test]
    fn parses_nested_structures_and_walks_them() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "n": 4.5}"#).unwrap();
        assert_eq!(v.num("n"), Some(4.5));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].str("b"), Some("x"));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(v.num("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
            "[1,]",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn reads_a_real_bench_file_shape() {
        let doc = r#"{
          "schema": "usipc-bench-protocols/v6",
          "protocols": [
            {"name": "BSW", "mode": "threads", "p50_us": 1.25, "p99_us": null,
             "sem_ops_per_rt": 4.000}
          ],
          "load_matrix": []
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.str("schema"), Some("usipc-bench-protocols/v6"));
        let p = &v.get("protocols").unwrap().as_arr().unwrap()[0];
        assert_eq!(p.str("name"), Some("BSW"));
        assert_eq!(p.num("p50_us"), Some(1.25));
        assert_eq!(p.num("p99_us"), None, "null reads as absent");
        assert_eq!(p.num("sem_ops_per_rt"), Some(4.0));
        assert!(v.get("load_matrix").unwrap().as_arr().unwrap().is_empty());
    }
}
