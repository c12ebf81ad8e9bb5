//! The codec for the bundle's line formats (`events.jsonl`,
//! `stacks.jsonl`, `decisions.jsonl`, `incidents.jsonl`, capture files,
//! `trace.json`): one pull [`Scanner`] that reads a line's bytes straight
//! into the caller's fields, one reading rule ([`read_lines`]: line
//! numbers, blank lines, the meta line's record count) that every line
//! format is read under, and one set of writers that format straight into
//! a buffer.
//!
//! Neither side builds a `serde_json::Value`. These files hold tens of
//! thousands of lines that every analyzer reads and every observed run
//! writes; a tree per line (a `BTreeMap`, a `String` per key, a nested
//! map for `attrs`) cost several times the scan itself. The `Value` path
//! stays for the small one-shot documents (`report.json`,
//! `postmortem.json`, `--json`) and, in tests, as the oracle this module
//! is checked against: it accepts exactly the lines `serde_json::from_str`
//! accepts and writes exactly the bytes `Value::to_json_string` writes.

use crate::log::EventRef;
use crate::name::{Attrs, Name, Names};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------- writer

/// Appends `n` the way every artifact spells a number: integral values
/// below 1e15 as integers (`-0.0` is `0`), anything else finite as the
/// shortest round-trip decimal, non-finite values as `null`.
pub fn write_f64(out: &mut String, n: f64) {
    // Writing into a `String` cannot fail.
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\`, newline, carriage
/// return and tab get their short escapes, other control characters
/// `\u00xx`, everything else passes through.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` ends on a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes one compact JSON object member by member. The artifacts' key
/// order is byte order (what a `BTreeMap`-backed `Value` would emit), so
/// callers add keys in ascending order.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Writes `"key":` and returns the buffer for the caller to append
    /// the value to (a nested object, say).
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A numeric member.
    pub fn num(&mut self, key: &str, v: f64) {
        write_f64(self.key(key), v);
    }

    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) {
        write_str(self.key(key), v);
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Walks `attrs` the way an event line lists them: ascending key order,
/// a repeated key seen once with its last value.
pub(crate) fn each_attr_sorted<'k>(
    attrs: impl Iterator<Item = (&'k str, f64)> + Clone,
    mut f: impl FnMut(&str, f64),
) {
    // Selection by ascending key: a handful of entries per event, so
    // quadratic beats allocating a sorted copy.
    let mut prev: Option<&str> = None;
    loop {
        let mut next: Option<(&str, f64)> = None;
        for (k, v) in attrs.clone() {
            if prev.is_some_and(|p| k <= p) {
                continue;
            }
            if next.is_none_or(|(best, _)| k <= best) {
                next = Some((k, v));
            }
        }
        let Some((k, v)) = next else { break };
        f(k, v);
        prev = Some(k);
    }
}

/// Appends the `events.jsonl` line of `e` (no newline). `attrs` render as
/// a sorted object in which a repeated key keeps its last value.
pub fn write_event(out: &mut String, e: EventRef<'_>) {
    let mut o = ObjectWriter::begin(out);
    if e.attr_count() > 0 {
        let mut a = ObjectWriter::begin(o.key("attrs"));
        each_attr_sorted(e.attrs(), |k, v| a.num(k, v));
        a.end();
    }
    if let Some(b) = e.block() {
        o.num("block", b as f64);
    }
    if let Some(d) = e.dur() {
        o.num("dur", d);
    }
    if let Some(i) = e.iteration() {
        o.num("iter", i as f64);
    }
    o.str("kind", e.kind());
    o.str("lane", e.lane());
    if let Some(p) = e.partition() {
        o.num("part", p as f64);
    }
    o.num("t", e.t());
    o.end();
}

/// Walks `n` events in the canonical order of `events.jsonl`, of capture
/// files and of the recorder's budget eviction — `(t, rendered line)`,
/// full ties in input order — handing `each` every event's input position
/// and line. Positions are sorted by `t` alone; each equal-`t` group is
/// then rendered into one reused buffer and sorted by its bytes, so
/// nothing holds more than the largest group's lines. `each` may stop the
/// walk by returning an error, which is passed on.
pub(crate) fn each_canonical<'e, E>(
    n: usize,
    event: impl Fn(usize) -> EventRef<'e>,
    mut each: impl FnMut(usize, &str) -> Result<(), E>,
) -> Result<(), E> {
    let mut order: Vec<u32> =
        (0..u32::try_from(n).expect("fewer than 2^32 events in one export")).collect();
    let t = |p: u32| event(p as usize).t();
    order.sort_by(|&a, &b| t(a).total_cmp(&t(b)));
    let mut buf = String::new();
    let mut group: Vec<(std::ops::Range<usize>, u32)> = Vec::new();
    let mut rest = &order[..];
    while let Some(&head) = rest.first() {
        let t0 = t(head);
        let len = rest.iter().take_while(|&&p| t(p).total_cmp(&t0).is_eq()).count();
        let (ties, tail) = rest.split_at(len);
        rest = tail;
        buf.clear();
        group.clear();
        for &p in ties {
            let start = buf.len();
            write_event(&mut buf, event(p as usize));
            group.push((start..buf.len(), p));
        }
        if group.len() > 1 {
            group.sort_by(|a, b| buf[a.0.clone()].cmp(&buf[b.0.clone()]));
        }
        for (range, p) in &group {
            each(*p as usize, &buf[range.clone()])?;
        }
    }
    Ok(())
}

/// Event lines rendered into one buffer and ordered canonically by
/// `(t, rendered bytes)`: the oracle [`each_canonical`] is checked
/// against.
#[cfg(test)]
pub(crate) struct CanonicalLines {
    buf: String,
    /// `(t, byte range in buf, position in the input)`, sorted.
    order: Vec<(f64, std::ops::Range<usize>, usize)>,
}

#[cfg(test)]
impl CanonicalLines {
    pub(crate) fn render<'e>(events: impl IntoIterator<Item = EventRef<'e>>) -> Self {
        let mut buf = String::new();
        let mut order = Vec::new();
        for (i, e) in events.into_iter().enumerate() {
            let start = buf.len();
            write_event(&mut buf, e);
            order.push((e.t(), start..buf.len(), i));
        }
        order.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| buf[a.1.clone()].cmp(&buf[b.1.clone()]))
        });
        CanonicalLines { buf, order }
    }

    /// `(input position, line)` in canonical order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = (usize, &str)> + '_ {
        self.order.iter().map(|(_, range, i)| (*i, &self.buf[range.clone()]))
    }
}

// ---------------------------------------------------------------- reader

/// Why a [`Scanner`] stopped: what it wanted and the byte it was at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    what: &'static str,
    at: usize,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ScanError {}

/// A pull scanner over one JSON text. The caller walks the structure it
/// expects — [`begin_object`](Self::begin_object), then
/// [`next_key`](Self::next_key) and one value reader per key — and the
/// scanner validates everything it passes over, including values the
/// caller skips. It accepts and rejects exactly what the workspace's
/// `serde_json::from_str` does (any key order, a lenient number token
/// handed to `str::parse::<f64>`, raw control characters in strings,
/// lone surrogates as U+FFFD); where that parser would keep the last of
/// a repeated key, the caller sees the key twice and overwrites.
pub struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    /// Whether the last token completed a value (so a `,` or a closing
    /// bracket comes next) rather than opened an object.
    after_value: bool,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Scanner {
            src,
            pos: 0,
            after_value: false,
        }
    }

    fn err<T>(&self, what: &'static str) -> Result<T, ScanError> {
        Err(ScanError { what, at: self.pos })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ScanError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(what)
        }
    }

    /// If the text's value is an object, steps into it and returns
    /// `true`; otherwise consumes nothing and returns `false`.
    pub fn begin_object(&mut self) -> bool {
        self.ws();
        if self.peek() == Some(b'{') {
            self.pos += 1;
            self.after_value = false;
            true
        } else {
            false
        }
    }

    /// The next key of the object being walked, or `None` once its `}`
    /// is consumed. The key's value must be read (or skipped) before the
    /// next call.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ScanError> {
        self.ws();
        if self.after_value {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(None);
                }
                _ => return self.err("expected ',' or '}'"),
            }
            self.ws();
        } else if self.peek() == Some(b'}') {
            self.pos += 1;
            self.after_value = true;
            return Ok(None);
        }
        let key = self.string_token()?;
        self.ws();
        self.expect(b':', "expected ':'")?;
        Ok(Some(key))
    }

    /// Reads the value: `Some` if it is a number, `None` (value skipped,
    /// still validated) if it is anything else.
    pub fn number(&mut self) -> Result<Option<f64>, ScanError> {
        self.ws();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => {
                self.after_value = true;
                self.number_token().map(Some)
            }
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Reads the value: `Some` if it is a string (borrowed unless it
    /// holds an escape), `None` if it is anything else.
    pub fn string(&mut self) -> Result<Option<Cow<'a, str>>, ScanError> {
        self.ws();
        if self.peek() == Some(b'"') {
            self.after_value = true;
            self.string_token().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// If the value is an object, steps into it (walk it with
    /// [`next_key`](Self::next_key) until `None`) and returns `true`;
    /// otherwise skips the value and returns `false`.
    pub fn enter_object(&mut self) -> Result<bool, ScanError> {
        if self.begin_object() {
            Ok(true)
        } else {
            self.skip_value().map(|()| false)
        }
    }

    /// Passes over one value of any shape, validating it.
    pub fn skip_value(&mut self) -> Result<(), ScanError> {
        // Open containers, innermost last; no allocation for scalars.
        let mut open: Vec<u8> = Vec::new();
        loop {
            self.ws();
            match self.peek() {
                Some(b'{') => {
                    self.pos += 1;
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        open.push(b'{');
                        self.member_key()?;
                        continue;
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        open.push(b'[');
                        continue;
                    }
                }
                Some(b'"') => drop(self.string_token()?),
                Some(b't') => self.keyword("true")?,
                Some(b'f') => self.keyword("false")?,
                Some(b'n') => self.keyword("null")?,
                Some(b'-' | b'0'..=b'9') => drop(self.number_token()?),
                _ => return self.err("expected a value"),
            }
            // A value just ended: close finished containers, or move to
            // the next element of the innermost open one.
            loop {
                let Some(&container) = open.last() else {
                    self.after_value = true;
                    return Ok(());
                };
                self.ws();
                let (close, what) = match container {
                    b'{' => (b'}', "expected ',' or '}'"),
                    _ => (b']', "expected ',' or ']'"),
                };
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if container == b'{' {
                            self.ws();
                            self.member_key()?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ => return self.err(what),
                }
            }
        }
    }

    /// Requires that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), ScanError> {
        self.ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            self.err("trailing characters")
        }
    }

    fn member_key(&mut self) -> Result<(), ScanError> {
        self.string_token()?;
        self.ws();
        self.expect(b':', "expected ':'")
    }

    fn keyword(&mut self, word: &'static str) -> Result<(), ScanError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err("invalid literal")
        }
    }

    fn number_token(&mut self) -> Result<f64, ScanError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos].parse::<f64>().or(Err(ScanError {
            what: "invalid number",
            at: start,
        }))
    }

    fn string_token(&mut self) -> Result<Cow<'a, str>, ScanError> {
        self.expect(b'"', "expected '\"'")?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        // `"` and `\` are ASCII: slicing at them stays on char boundaries.
        let stop = |from: usize| {
            bytes[from..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .map(|i| from + i)
        };
        let Some(mut at) = stop(start) else {
            self.pos = bytes.len();
            return self.err("unterminated string");
        };
        if bytes[at] == b'"' {
            self.pos = at + 1;
            return Ok(Cow::Borrowed(&self.src[start..at]));
        }
        let mut out = String::from(&self.src[start..at]);
        loop {
            if bytes[at] == b'"' {
                self.pos = at + 1;
                return Ok(Cow::Owned(out));
            }
            self.pos = at + 2;
            match bytes.get(at + 1) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let code = self
                        .src
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                    let Some(code) = code else {
                        return self.err("bad \\u escape");
                    };
                    self.pos += 4;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => {
                    self.pos = at + 1;
                    return self.err("bad escape");
                }
            }
            let resume = self.pos;
            let Some(next) = stop(resume) else {
                self.pos = bytes.len();
                return self.err("unterminated string");
            };
            out.push_str(&self.src[resume..next]);
            at = next;
        }
    }
}

/// The `u64` a JSON number stands for where an artifact carries a count
/// or an index (`iter`, `part`, `block`, the meta line's `events`):
/// non-negative and integral, else `None`.
pub fn as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// A `*.jsonl` artifact that cannot be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonlError {
    /// Line `line` (counted from 1) is not a record of this file.
    Line {
        /// Artifact name, e.g. `events.jsonl`.
        file: &'static str,
        /// 1-based line number.
        line: usize,
        /// What is wrong with it.
        msg: String,
    },
    /// The meta line declares more or fewer records than the file holds
    /// — what a bundle cut at a line boundary looks like.
    Count {
        /// Artifact name.
        file: &'static str,
        /// Records the meta line(s) announce.
        declared: u64,
        /// Record lines actually read.
        read: u64,
    },
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonlError::Line { file, line, msg } => write!(f, "{file} line {line}: {msg}"),
            JsonlError::Count {
                file,
                declared,
                read,
            } => write!(
                f,
                "{file}: the meta line declares {declared} record(s) but {read} were read \
                 (truncated bundle?)"
            ),
        }
    }
}

impl std::error::Error for JsonlError {}

impl From<JsonlError> for String {
    fn from(e: JsonlError) -> String {
        e.to_string()
    }
}

/// What one non-blank line of a bundle file is, as its format's line
/// parser tells [`read_lines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line {
    /// A meta line (an object carrying `schema`), with the number of
    /// records it declares, if it declares any.
    Meta(Option<u64>),
    /// A record, counted against the meta line.
    Record,
    /// A line the format passes over uncounted (an autoscaler line in
    /// `decisions.jsonl`).
    Other,
}

/// The one reading rule of every bundle line format (`events.jsonl`,
/// `stacks.jsonl`, `decisions.jsonl`, `incidents.jsonl`, capture files).
/// Lines are numbered from 1 and blank ones skipped; `parse` is handed
/// every other line, trimmed, keeps what it reads and says what the line
/// was — or why it is not a line of `file`, which becomes an error naming
/// the line. The counts the meta lines declare add up, and when any is
/// declared the file must hold exactly that many records: a bundle cut at
/// a line boundary must not be read as if it were whole. A file that
/// declares no count (hand-written fixtures, pre-schema bundles) is read
/// as it is.
pub fn read_lines(
    file: &'static str,
    text: &str,
    mut parse: impl FnMut(&str) -> Result<Line, String>,
) -> Result<(), JsonlError> {
    let mut declared: Option<u64> = None;
    let mut read = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let kind = parse(line).map_err(|msg| JsonlError::Line {
            file,
            line: i + 1,
            msg,
        })?;
        match kind {
            Line::Meta(Some(n)) => declared = Some(declared.unwrap_or(0).saturating_add(n)),
            Line::Meta(None) | Line::Other => {}
            Line::Record => read += 1,
        }
    }
    match declared {
        Some(declared) if declared != read => Err(JsonlError::Count {
            file,
            declared,
            read,
        }),
        _ => Ok(()),
    }
}

/// Where the numeric members of an event's `attrs` object go. `reset` is
/// called whenever an `attrs` key starts (a repeated key starts over),
/// `set` for a numeric member and `unset` for a non-numeric one (which
/// displaces an earlier numeric value of the same name).
trait AttrSink {
    fn reset(&mut self);
    fn set(&mut self, key: Cow<'_, str>, value: f64);
    fn unset(&mut self, key: &str);
}

/// The sink of [`read_events`]: attributes land key-sorted in an
/// [`Attrs`], their keys interned through the file's one [`Names`] table
/// (which the reader also runs lane and kind through).
#[derive(Default)]
struct Interning {
    names: Names,
    attrs: Attrs,
}

impl AttrSink for Interning {
    fn reset(&mut self) {
        self.attrs.clear();
    }
    fn set(&mut self, key: Cow<'_, str>, value: f64) {
        let names = &mut self.names;
        self.attrs.set_with(&key, value, || names.intern(&key));
    }
    fn unset(&mut self, key: &str) {
        self.attrs.remove(key);
    }
}

/// The sink of readers that do not look at attributes: the `attrs`
/// object is still validated, nothing is kept.
struct NoAttrs;

impl AttrSink for NoAttrs {
    fn reset(&mut self) {}
    fn set(&mut self, _: Cow<'_, str>, _: f64) {}
    fn unset(&mut self, _: &str) {}
}

/// One event of a strict [`read_events`] pass: every required member is
/// present, every name is a handle from the file's intern table.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Start time, virtual seconds.
    pub t: f64,
    /// Span duration; `None` for point events.
    pub dur: Option<f64>,
    /// Lane name, e.g. `node0-gpu0-compute`.
    pub lane: Name,
    /// Event kind, e.g. `kernel`.
    pub kind: Name,
    /// Iteration tag, when the emitter scoped the event to one.
    pub iter: Option<u64>,
    /// Partition tag.
    pub part: Option<u64>,
    /// Block tag.
    pub block: Option<u64>,
    /// The numeric attributes (`flops`, `bytes`, `wait_s`, …), key-sorted.
    pub attrs: Attrs,
}

impl EventRecord {
    /// End timestamp (equals `t` for point events).
    pub fn end(&self) -> f64 {
        self.t + self.dur.unwrap_or(0.0)
    }

    /// Span length, 0 for point events.
    pub fn duration(&self) -> f64 {
        self.dur.unwrap_or(0.0)
    }
}

/// An event line whose required members are all there; a member of the
/// wrong type reads as absent, a repeated member keeps its last value.
struct CheckedLine<'a> {
    t: f64,
    dur: Option<f64>,
    lane: Cow<'a, str>,
    kind: Cow<'a, str>,
    iter: Option<u64>,
    part: Option<u64>,
    block: Option<u64>,
}

/// One line of `events.jsonl` (or an event line of a capture file: same
/// schema). An object carrying `schema` is a meta line, declaring the
/// count in its `events` member; any other object is an event, handed to
/// `each` with its attributes in `sink`. Unknown members are validated
/// and ignored. A line that is not a JSON object, or an event without a
/// numeric `t` and string `lane`/`kind`, is an error.
fn event_line<S: AttrSink>(
    line: &str,
    sink: &mut S,
    each: impl FnOnce(&mut S, CheckedLine<'_>),
) -> Result<Line, String> {
    let mut sc = Scanner::new(line);
    let (mut t, mut dur, mut lane, mut kind) = (None, None, None, None);
    let (mut iter, mut part, mut block) = (None, None, None);
    let mut meta = false;
    let mut declared = None;
    sink.reset();
    let mut scan = || -> Result<bool, ScanError> {
        if !sc.begin_object() {
            sc.skip_value()?;
            sc.end()?;
            return Ok(false);
        }
        while let Some(key) = sc.next_key()? {
            match key.as_ref() {
                "t" => t = sc.number()?,
                "dur" => dur = sc.number()?,
                "lane" => lane = sc.string()?,
                "kind" => kind = sc.string()?,
                "iter" => iter = sc.number()?.and_then(as_u64),
                "part" => part = sc.number()?.and_then(as_u64),
                "block" => block = sc.number()?.and_then(as_u64),
                "attrs" => {
                    sink.reset();
                    if sc.enter_object()? {
                        while let Some(name) = sc.next_key()? {
                            match sc.number()? {
                                Some(v) => sink.set(name, v),
                                None => sink.unset(&name),
                            }
                        }
                    }
                }
                "schema" => {
                    meta = true;
                    sc.skip_value()?;
                }
                "events" => declared = sc.number()?.and_then(as_u64),
                _ => sc.skip_value()?,
            }
        }
        sc.end()?;
        Ok(true)
    };
    if !scan().map_err(|e| e.to_string())? {
        return Err("not an object".into());
    }
    if meta {
        return Ok(Line::Meta(declared));
    }
    let missing = |key: &str| format!("missing {key:?}");
    let line = CheckedLine {
        t: t.ok_or_else(|| missing("t"))?,
        dur,
        lane: lane.ok_or_else(|| missing("lane"))?,
        kind: kind.ok_or_else(|| missing("kind"))?,
        iter,
        part,
        block,
    };
    each(sink, line);
    Ok(Line::Record)
}

/// The line parser of `events.jsonl`, for [`read_events`] and for the
/// formats that embed its event lines (a capture file's exact events):
/// the lines it is handed share one intern table.
#[derive(Default)]
pub struct EventReader(Interning);

impl EventReader {
    /// Reads one line ([`read_lines`] says which), handing an event to
    /// `each`.
    pub fn line(&mut self, line: &str, each: impl FnOnce(EventRecord)) -> Result<Line, String> {
        event_line(line, &mut self.0, |sink, line| {
            each(EventRecord {
                t: line.t,
                dur: line.dur,
                lane: sink.names.intern(&line.lane),
                kind: sink.names.intern(&line.kind),
                iter: line.iter,
                part: line.part,
                block: line.block,
                attrs: std::mem::take(&mut sink.attrs),
            })
        })
    }
}

/// Reads a whole `events.jsonl` under [`read_lines`]' rule, handing each
/// event to `each` in file order. A line that is not a JSON object, or an
/// event without a numeric `t` and string `lane`/`kind`, is an error
/// naming its line, and so is an event count other than the meta line's.
///
/// Lane, kind and attribute keys go through one intern table for the
/// whole file, so two events naming the same lane — however the file
/// spells it (`"node0-sched"`, `"\u006eode0-sched"`) — share one
/// allocation: a read allocates per distinct name, not per event.
pub fn read_events(text: &str, mut each: impl FnMut(EventRecord)) -> Result<(), JsonlError> {
    let mut reader = EventReader::default();
    read_lines("events.jsonl", text, |line| reader.line(line, &mut each))
}

/// Latest event end in an `events.jsonl` — the sampling horizon — from
/// a pass that keeps nothing but `t` and `dur`. Rejects exactly what
/// [`read_events`] rejects.
pub fn events_horizon(text: &str) -> Result<f64, JsonlError> {
    let mut horizon = 0.0_f64;
    read_lines("events.jsonl", text, |line| {
        event_line(line, &mut NoAttrs, |_, e| {
            horizon = horizon.max(e.t + e.dur.unwrap_or(0.0));
        })
    })?;
    Ok(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Event;
    use crate::log::EventLog;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Start times full of ties: both zeros, subnormals, repeats.
    const TIMES: [f64; 8] = [0.0, -0.0, 5e-324, 2.5e-310, 1.0, 1.0, 0.1 + 0.2, 0.3];
    const KEYS: [&str; 5] = ["bytes", "flops", "a", "bytes", ""];
    const VALUES: [f64; 6] = [0.0, -0.0, 5e-324, 1.0, 1e15, f64::MAX];

    type Spec = (usize, usize, usize, usize, Vec<(usize, usize)>);

    fn log_of(specs: &[Spec], big: bool) -> EventLog {
        let mut log = EventLog::new();
        for (t, lane, kind, dur, attrs) in specs {
            log.push_event(&Event {
                t: TIMES[*t],
                dur: [None, Some(0.0), Some(1.5)][*dur],
                lane: Arc::from(format!("node{lane}-cpu-c0")),
                kind: Arc::from(["map", "kernel", "msg-send"][*kind]),
                iteration: (*lane == 1).then_some(*kind as u64),
                partition: None,
                block: (*dur == 2).then_some(u64::MAX),
                attrs: attrs.iter().map(|&(k, v)| (KEYS[k], VALUES[v])).collect(),
            });
        }
        if big {
            let keys: Vec<&'static str> =
                (0..300).map(|i| &*Box::leak(format!("k{:03}", 299 - i).into_boxed_str())).collect();
            log.push_event(&Event {
                t: 1.0,
                dur: None,
                lane: Arc::from("node0-cpu-c0"),
                kind: Arc::from("map"),
                iteration: None,
                partition: None,
                block: None,
                attrs: keys.iter().enumerate().map(|(i, k)| (*k, i as f64)).collect(),
            });
        }
        log
    }

    fn streamed(log: &EventLog) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        each_canonical(log.len(), |p| log.get(p), |p, line| {
            out.push((p, line.to_string()));
            Ok::<(), ()>(())
        })
        .unwrap();
        out
    }

    proptest! {
        #[test]
        fn the_streamed_export_is_the_render_all_export(
            specs in vec((0usize..8, 0usize..4, 0usize..3, 0usize..3, vec((0usize..5, 0usize..6), 0..5)), 0..120),
            big in any::<bool>(),
        ) {
            let log = log_of(&specs, big);
            let oracle = CanonicalLines::render(log.iter());
            let want: Vec<(usize, String)> =
                oracle.lines().map(|(p, line)| (p, line.to_string())).collect();
            prop_assert_eq!(streamed(&log), want.clone());
            let mut bytes = Vec::new();
            log.write_lines(&mut bytes).unwrap();
            let lines: String = want.iter().map(|(_, line)| format!("{line}\n")).collect();
            prop_assert_eq!(String::from_utf8(bytes).unwrap(), lines);
            if big {
                let (_, line) = want.iter().find(|(p, _)| *p == specs.len()).unwrap();
                prop_assert!((0..300).all(|i| line.contains(&format!("\"k{i:03}\":{}", 299 - i))));
            }
        }
    }

    #[test]
    fn a_walk_stops_where_the_caller_says() {
        let specs: Vec<Spec> = (0..50).map(|i| (i % 8, i % 4, i % 3, i % 3, vec![(i % 5, 0)])).collect();
        let log = log_of(&specs, false);
        let mut seen = Vec::new();
        let stopped = each_canonical(log.len(), |p| log.get(p), |p, _| {
            seen.push(p);
            if seen.len() == 7 { Err("enough") } else { Ok(()) }
        });
        assert_eq!(stopped, Err("enough"));
        let all: Vec<usize> = streamed(&log).into_iter().map(|(p, _)| p).collect();
        assert_eq!(seen, all[..7]);
    }
}
