//! Hermetic shim of `serde_json`, backed by the serde shim's [`Value`].
//!
//! Provides the surface this workspace uses: the [`json!`] macro,
//! [`to_string`] / [`to_string_pretty`], [`to_value`], and a
//! recursive-descent [`from_str`] that parses into [`Value`].

pub use serde::Value;
use serde::Serialize;

use std::collections::BTreeMap;
use std::fmt;

/// JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Converts any `Serialize` into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_json())
}

/// Compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_json().to_json_string())
}

/// Pretty JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_json().to_json_string_pretty())
}

/// Parses JSON text into a [`Value`].
///
/// Unlike the real serde_json this is not generic over the output type:
/// every `from_str` call site in the workspace reads into `Value`.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, val: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(val)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(Error::new("truncated \\u escape"));
                        }
                        let hex =
                            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                        self.pos += 4;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("bad \\u escape"))?;
                        // Surrogate pairs are not needed by any workspace
                        // artifact; map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(Error::new(format!("bad escape {:?}", other)));
                    }
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-decode the UTF-8 sequence starting at c.
                    let start = self.pos - 1;
                    let width = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + width).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(Error::new("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => return Err(Error::new("expected ',' or '}' in object")),
            }
        }
    }
}

/// Conformance vectors for the byte-stable artifact surface: the number
/// formatting, string escaping and key ordering every golden depends on.
/// The shim's own tests check [`Value`] rendering against them, and any
/// writer that formats JSON without building a `Value` (the `obs::jsonl`
/// codec) checks itself against the same tables.
#[doc(hidden)]
pub mod conformance {
    /// `(value, rendered)`: integral values below 1e15 print as integers
    /// (`-0.0` is `0`), everything else as Rust's shortest round-trip
    /// `Display` — never an exponent — and non-finite values as `null`.
    pub fn numbers() -> Vec<(f64, String)> {
        let zeros = |n: usize| "0".repeat(n);
        let mut rows: Vec<(f64, String)> = [
            (0.0, "0"),
            (-0.0, "0"),
            (1.0, "1"),
            (-1.0, "-1"),
            (4096.0, "4096"),
            (1e9, "1000000000"),
            (0.5, "0.5"),
            (0.1, "0.1"),
            (0.3, "0.3"),
            (1.0 / 3.0, "0.3333333333333333"),
            (-2.5, "-2.5"),
            (123456.789, "123456.789"),
            (0.07099967177173912, "0.07099967177173912"),
            (1e-6, "0.000001"),
            (1e-7, "0.0000001"),
            (2.5e-5, "0.000025"),
            (123456789012345.0, "123456789012345"),
            (999999999999999.0, "999999999999999"),
            (999999999999999.5, "999999999999999.5"),
            (1e15, "1000000000000000"),
            (-1e15, "-1000000000000000"),
            (1e16, "10000000000000000"),
            (9007199254740992.0, "9007199254740992"),
            (1e21, "1000000000000000000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ]
        .into_iter()
        .map(|(n, s)| (n, s.to_string()))
        .collect();
        rows.push((1.5e300, format!("15{}", zeros(299))));
        rows.push((f64::MAX, format!("17976931348623157{}", zeros(292))));
        rows.push((5e-324, format!("0.{}5", zeros(323))));
        rows.push((
            f64::MIN_POSITIVE,
            format!("0.{}22250738585072014", zeros(307)),
        ));
        rows
    }

    /// `(string, rendered)`: only `"`, `\\`, `\n`, `\r`, `\t` get short
    /// escapes; other control characters below 0x20 are `\u00xx`
    /// (lower-case hex); `/`, DEL and non-ASCII pass through.
    pub const STRINGS: &[(&str, &str)] = &[
        ("", r#""""#),
        ("node0-gpu0-compute", r#""node0-gpu0-compute""#),
        ("say \"hi\"", r#""say \"hi\"""#),
        ("back\\slash", r#""back\\slash""#),
        ("a\nb\rc\td", r#""a\nb\rc\td""#),
        ("\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}", r#""\u0000\u0001\u0008\u000b\u000c\u001f""#),
        ("a/b\u{7f}", "\"a/b\u{7f}\""),
        ("é — 日本 🚀", "\"é — 日本 🚀\""),
    ];

    /// `(keys as inserted, rendered object with value 0 each)`: keys are
    /// emitted in byte order whatever the insertion order, and a repeated
    /// key keeps one entry.
    pub const KEY_ORDER: &[(&[&str], &str)] = &[
        (&["t", "lane", "kind", "dur", "attrs"], r#"{"attrs":0,"dur":0,"kind":0,"lane":0,"t":0}"#),
        (&["b", "a", "B", "aa", "", "é", "a"], r#"{"":0,"B":0,"a":0,"aa":0,"b":0,"é":0}"#),
        (&["t1", "t0", "t_fire", "t"], r#"{"t":0,"t0":0,"t1":0,"t_fire":0}"#),
    ];
}

/// Builds a [`Value`] from JSON-ish syntax, like `serde_json::json!`.
///
/// Handles nested objects/arrays and arbitrary Rust expressions in value
/// position (anything implementing the shim's `Serialize`). The muncher
/// structure follows the canonical serde_json implementation.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //
    // Array muncher: accumulates elements into [$($elems:expr,)*].
    //
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    //
    // Object muncher: @object $map (key tokens) (remaining) (copy).
    //
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    //
    // Entry points.
    //
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object(::std::collections::BTreeMap::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = ::std::collections::BTreeMap::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::to_value(&$other).unwrap() };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = json!({
            "name": "gemv",
            "n": 4096u64,
            "ok": true,
            "ratio": 0.25f64,
            "tags": ["a", "b"],
            "none": null,
        });
        let text = to_string(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back["name"], "gemv");
        assert_eq!(back["n"], 4096u64);
        assert_eq!(back["tags"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn parses_nested_and_escapes() {
        let v = from_str(r#"{"a": [1, -2.5, {"b": "x\ny"}], "c": false}"#).unwrap();
        assert_eq!(v["a"][1], -2.5f64);
        assert_eq!(v["a"][2]["b"], "x\ny");
        assert_eq!(v["c"], false);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{oops}").is_err());
        assert!(from_str("[1,]2").is_err());
    }

    #[test]
    fn pretty_prints() {
        let v = json!({"k": [1]});
        let p = to_string_pretty(&v).unwrap();
        assert_eq!(p, "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn numbers_render_per_the_conformance_table() {
        for (n, want) in conformance::numbers() {
            assert_eq!(Value::Number(n).to_json_string(), want, "{n:e}");
            assert_eq!(to_string(&n).unwrap(), want, "{n:e}");
            // Finite renderings parse back to the same bits (modulo -0).
            if n.is_finite() {
                let back = from_str(&want).unwrap().as_f64().unwrap();
                assert_eq!(back, n, "{want}");
            }
        }
    }

    #[test]
    fn strings_escape_per_the_conformance_table() {
        for (s, want) in conformance::STRINGS {
            let v = Value::String(s.to_string());
            assert_eq!(v.to_json_string(), *want, "{s:?}");
            assert_eq!(from_str(want).unwrap(), v, "{want}");
        }
    }

    #[test]
    fn object_keys_sort_per_the_conformance_table() {
        for (keys, want) in conformance::KEY_ORDER {
            let map: BTreeMap<String, Value> =
                keys.iter().map(|k| (k.to_string(), Value::Number(0.0))).collect();
            let v = Value::Object(map);
            assert_eq!(v.to_json_string(), *want);
            // Pretty printing changes whitespace only.
            let pretty: String = v
                .to_json_string_pretty()
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
            assert_eq!(pretty, want.replace(' ', ""));
        }
    }
}
