//! Hermetic shim of the `serde` facade.
//!
//! The real serde is a visitor-based framework; this workspace only ever
//! serializes values to JSON (config dumps, Chrome traces, bench rows), so
//! the shim collapses `Serialize` to "produce a [`Value`] tree". The
//! `derive` feature re-exports token-scanning derive macros from the
//! in-tree `serde_derive` shim. `Deserialize` exists as a no-op derive so
//! existing `#[derive(Serialize, Deserialize)]` lines keep compiling.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON value (the shim's serialization target).
///
/// Objects use a `BTreeMap` so serialization order is deterministic —
/// important for golden tests and reproducible artifacts.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    fn write_json(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                // Writing into a `String` cannot fail.
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        // Integral values print without a trailing ".0",
                        // matching serde_json's integer formatting.
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        item.write_json(out, Some(level + 1));
                    } else {
                        item.write_json(out, None);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(out, level);
                }
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        write_escaped(out, k);
                        out.push_str(": ");
                        v.write_json(out, Some(level + 1));
                    } else {
                        write_escaped(out, k);
                        out.push(':');
                        v.write_json(out, None);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(out, level);
                }
                out.push('}');
            }
        }
    }

    /// Compact JSON text.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, None);
        out
    }

    /// Pretty JSON text (two-space indent, like `serde_json::to_string_pretty`).
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, Some(0));
        out
    }
}

fn newline_indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl fmt::Display for Value {
    /// Prints compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

macro_rules! value_eq_via {
    ($t:ty, $conv:expr) => {
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                #[allow(clippy::redundant_closure_call)]
                ($conv)(self, other)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    };
}

value_eq_via!(bool, |v: &Value, o: &bool| v.as_bool() == Some(*o));
value_eq_via!(f64, |v: &Value, o: &f64| v.as_f64() == Some(*o));
value_eq_via!(f32, |v: &Value, o: &f32| v.as_f64() == Some(*o as f64));
value_eq_via!(i32, |v: &Value, o: &i32| v.as_i64() == Some(*o as i64));
value_eq_via!(i64, |v: &Value, o: &i64| v.as_i64() == Some(*o));
value_eq_via!(u32, |v: &Value, o: &u32| v.as_u64() == Some(*o as u64));
value_eq_via!(u64, |v: &Value, o: &u64| v.as_u64() == Some(*o));
value_eq_via!(usize, |v: &Value, o: &usize| v.as_u64() == Some(*o as u64));
value_eq_via!(&str, |v: &Value, o: &&str| v.as_str() == Some(*o));
value_eq_via!(String, |v: &Value, o: &String| v.as_str() == Some(o.as_str()));

/// A type that can render itself as a JSON [`Value`].
///
/// This replaces serde's visitor API: every derived or hand-written impl
/// produces the `Value` tree directly, and `serde_json` formats it.
pub trait Serialize {
    fn to_json(&self) -> Value;
}

macro_rules! serialize_num {
    ($($t:ty),+) => {
        $(impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        })+
    };
}

serialize_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl Serialize for () {
    fn to_json(&self) -> Value {
        Value::Null
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<K: fmt::Display, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: fmt::Display, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_json(&self) -> Value {
        // Route through BTreeMap for deterministic key order.
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(3u32.to_json(), Value::Number(3.0));
        assert_eq!(true.to_json(), Value::Bool(true));
        assert_eq!("hi".to_json(), Value::String("hi".into()));
        assert_eq!(Option::<u32>::None.to_json(), Value::Null);
    }

    #[test]
    fn compact_and_pretty_render() {
        let v = Value::Object(
            [
                ("a".to_string(), Value::Number(1.0)),
                ("b".to_string(), Value::Array(vec![Value::Bool(false)])),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(v.to_json_string(), r#"{"a":1,"b":[false]}"#);
        assert!(v.to_json_string_pretty().contains("\n  \"a\": 1"));
    }

    #[test]
    fn index_and_eq() {
        let v = vec![1u64, 2, 3].to_json();
        assert_eq!(v[1], 2u64);
        assert!(v[9].is_null());
    }
}
