//! The one reader of the workspace's three TOML input files: membership
//! plans (`prs run --membership`), SLO rules (`--rules`) and fitted
//! profiles (`--profile-file`). [`parse`] turns text into ordered
//! [`Table`]s of `(key, scalar, line)` [`Entry`]s; each format maps them
//! onto its own types and checks its own keys and limits.
//!
//! The workspace is hermetic (no crates.io), so this is a small subset of
//! TOML, and every format is read under the same rules:
//!
//! - **Lines.** Each line is blank, a comment, a table header or
//!   `key = value`. `#` starts a comment anywhere outside a string.
//! - **Headers.** `[name]` opens a table, `[[name]]` one more element of
//!   an array of tables; a name is bare keys joined by `.`, with no space
//!   around the dots. A `[name]` appears once, and never beside a
//!   `[[name]]`. Keys before the first header belong to the root table,
//!   whose name is empty.
//! - **Keys.** A key is a bare key (ASCII letters, digits, `_`, `-`) and
//!   appears at most once in its table.
//! - **Scalars.** A value is a string, `true`/`false` or a number. A
//!   string is in double quotes; inside it `\"`, `\\`, `\t`, `\n` and `\r`
//!   are the escapes and every other character stands for itself.
//!   [`quote`] writes strings under the same rule, so every string reads
//!   back as it was written. A number is anything Rust's `f64` parser
//!   takes (`3`, `-0.5`, `1e-6`, and `inf`/`nan`, which each format
//!   refuses where it must), so a float written with `{}` reads back
//!   bit-exact.
//! - **Errors.** Malformed text is an `Err` naming the line
//!   (`line 7: unterminated string`); [`Entry::error`] words a format's
//!   own refusals the same way. Nothing here panics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

/// A value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Scalar {
    /// A quoted string, its escapes undone.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
}

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// The value.
    pub(crate) value: Scalar,
    /// The 1-based line number.
    pub line: usize,
}

impl Entry {
    /// An error about this entry: ``line N: `key` what``.
    pub fn error(&self, what: impl Display) -> String {
        format!("line {}: `{}` {what}", self.line, self.key)
    }

    /// The value as a number.
    pub fn num(&self) -> Result<f64, String> {
        match self.value {
            Scalar::Num(n) => Ok(n),
            _ => Err(self.error("wants a number")),
        }
    }

    /// The value as a string.
    pub fn str(&self) -> Result<&str, String> {
        match &self.value {
            Scalar::Str(s) => Ok(s),
            _ => Err(self.error("wants a quoted string")),
        }
    }

    /// The value as a bool.
    pub fn bool(&self) -> Result<bool, String> {
        match self.value {
            Scalar::Bool(b) => Ok(b),
            _ => Err(self.error("wants true/false")),
        }
    }
}

/// The root table, one `[name]` table or one `[[name]]` element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// The header's name; empty for the root table.
    pub name: String,
    /// Opened by `[[name]]`.
    pub array: bool,
    /// The header's line; 0 for the root table.
    pub line: usize,
    /// The entries, in file order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// The entry for `key`, or an error naming the missing key.
    pub fn get(&self, key: &str) -> Result<&Entry, String> {
        let found = self.entries.iter().find(|e| e.key == key);
        found.ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The error for a header the format does not know.
    pub fn unknown(&self) -> String {
        let (open, close) = if self.array { ("[[", "]]") } else { ("[", "]") };
        format!(
            "line {}: unknown section `{open}{}{close}`",
            self.line, self.name
        )
    }
}

/// `v` as a count no greater than `max`: finite, non-negative and whole.
/// Past 2^53 a count has a double's precision.
pub fn whole(v: f64, max: u64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v <= max as f64).then_some(v as u64)
}

/// `s` as a quoted string that [`parse`] reads back as `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' | '\t' | '\n' | '\r' => out.extend(c.escape_default()),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn is_bare(key: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    !key.is_empty() && key.bytes().all(ok)
}

/// Reads text into its tables, the root table first.
pub fn parse(text: &str) -> Result<Vec<Table>, String> {
    let mut tables = vec![Table::default()];
    // Table names, each with whether `[[name]]` opened it; and the keys
    // set so far, by table index. Sets keep a long file linear.
    let (mut names, mut keys) = (BTreeMap::new(), BTreeSet::new());
    for (line, raw) in (1..).zip(text.lines()) {
        let rest = raw.trim();
        if rest.is_empty() || rest.starts_with('#') {
            continue;
        }
        if let Some(head) = rest.strip_prefix('[') {
            let head = head.find('#').map_or(head, |p| &head[..p]).trim_end();
            let (array, name) = match head.strip_prefix('[') {
                Some(inner) => (true, inner.strip_suffix("]]")),
                None => (false, head.strip_suffix(']')),
            };
            let name = match name.map(str::trim) {
                Some(name) if name.split('.').all(is_bare) => name.to_string(),
                _ => return Err(format!("line {line}: `[{head}` is not a table header")),
            };
            let was = names.insert(name.clone(), array);
            if was.is_some_and(|was| !(was && array)) {
                return Err(format!("line {line}: table `{name}` is defined twice"));
            }
            tables.push(Table {
                name,
                array,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let (key, value) = rest
            .split_once('=')
            .ok_or_else(|| format!("line {line}: expected `key = value` or a [section]"))?;
        let key = key.trim().to_string();
        if !is_bare(&key) {
            return Err(format!("line {line}: `{key}` is not a bare key"));
        }
        if !keys.insert((tables.len(), key.clone())) {
            return Err(format!("line {line}: `{key}` is set twice"));
        }
        let value = scalar(value.trim(), line)?;
        let table = tables.last_mut().expect("the root table is there");
        table.entries.push(Entry { key, value, line });
    }
    Ok(tables)
}

fn scalar(raw: &str, line: usize) -> Result<Scalar, String> {
    if let Some(body) = raw.strip_prefix('"') {
        let (s, tail) = unquote(body, line)?;
        return match tail.trim_start() {
            t if t.is_empty() || t.starts_with('#') => Ok(Scalar::Str(s)),
            t => Err(format!("line {line}: `{t}` follows a string")),
        };
    }
    let token = raw.find('#').map_or(raw, |p| &raw[..p]).trim_end();
    match token {
        "true" => Ok(Scalar::Bool(true)),
        "false" => Ok(Scalar::Bool(false)),
        _ => token
            .parse()
            .map(Scalar::Num)
            .map_err(|_| format!("line {line}: expected string, number, or bool, got `{token}`")),
    }
}

/// A string's body up to its closing quote, unescaped, and the text
/// after that quote.
fn unquote(body: &str, line: usize) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        let c = match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => match chars.next() {
                Some((_, e @ ('"' | '\\'))) => e,
                Some((_, 't')) => '\t',
                Some((_, 'n')) => '\n',
                Some((_, 'r')) => '\r',
                _ => return Err(format!("line {line}: unknown escape in a string")),
            },
            c => c,
        };
        out.push(c);
    }
    Err(format!("line {line}: unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_keep_file_order_and_lines() {
        let text = "top = 1 # note\n\n[a.b]\nx = \"#\"\n[[c]]\ny = true\n[[c]]\n";
        let tables = parse(text).unwrap();
        let heads: Vec<_> = tables
            .iter()
            .map(|t| (t.name.as_str(), t.array, t.line))
            .collect();
        assert_eq!(
            heads,
            [
                ("", false, 0),
                ("a.b", false, 3),
                ("c", true, 5),
                ("c", true, 7)
            ]
        );
        assert_eq!(tables[0].get("top").unwrap().value, Scalar::Num(1.0));
        assert_eq!(tables[1].get("x").unwrap().value, Scalar::Str("#".into()));
        assert_eq!(tables[2].get("y").unwrap().line, 6);
        assert_eq!(tables[3].get("y").unwrap_err(), "missing key \"y\"");
    }

    #[test]
    fn quoted_strings_round_trip() {
        for s in [
            "",
            "rack #3",
            "say \"hi\"",
            "C:\\gpu\\",
            "a\tb\nc\r",
            "\u{0}\u{7f}é ☃ ",
        ] {
            let tables = parse(&format!("s = {} # trailing\n", quote(s))).unwrap();
            assert_eq!(tables[0].get("s").unwrap().str(), Ok(s), "{s:?}");
        }
    }

    #[test]
    fn malformed_lines_name_the_line() {
        for (text, says) in [
            ("a = 1\nb = \"open\n", "line 2: unterminated string"),
            ("s = \"a\\\"\n", "line 1: unterminated string"),
            ("s = \"a\" b\n", "line 1: `b` follows a string"),
            ("s = \"\\u0041\"\n", "line 1: unknown escape"),
            (
                "n = 1 2\n",
                "line 1: expected string, number, or bool, got `1 2`",
            ),
            ("n =\n", "line 1: expected string, number, or bool, got ``"),
            ("\n\nno equals\n", "line 3: expected `key = value`"),
            ("a b = 1\n", "line 1: `a b` is not a bare key"),
            (" = 1\n", "line 1: `` is not a bare key"),
            ("[a\n", "line 1: `[a` is not a table header"),
            ("[[a]\n", "line 1: `[[a]` is not a table header"),
            ("[a. b]\n", "line 1: `[a. b]` is not a table header"),
            ("[]\n", "line 1: `[]` is not a table header"),
            ("a = 1\na = 2\n", "line 2: `a` is set twice"),
            ("[t]\n[t]\n", "line 2: table `t` is defined twice"),
            ("[[t]]\n[t]\n", "line 2: table `t` is defined twice"),
            ("[t]\n[[t]]\n", "line 2: table `t` is defined twice"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(says), "{text:?}: {err}");
        }
        assert!(parse("[[t]] # x\na = 1\n[[t]]\na = 2\n").is_ok());
    }

    #[test]
    fn counts_are_whole_and_in_range() {
        assert_eq!(whole(0.0, 5), Some(0));
        assert_eq!(whole(5.0, 5), Some(5));
        assert_eq!(whole(u64::MAX as f64, u64::MAX), Some(u64::MAX));
        for v in [-1.0, 2.5, 6.0, f64::NAN, f64::INFINITY, -0.5] {
            assert_eq!(whole(v, 5), None, "{v}");
        }
    }
}
