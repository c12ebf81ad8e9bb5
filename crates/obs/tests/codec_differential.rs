//! Differential tests of the bundle codec (`obs::jsonl`) against the
//! `serde_json::Value` path it replaced. The `Value` renderings and
//! parsers below are the oracle and live only here.
//!
//! Reader: on generated lines — shuffled key order, unknown members
//! holding nested values and escapes, repeated keys, members of the wrong
//! type, negative/fractional tags, truncation, trailing garbage,
//! non-object lines — the codec yields the same events as parsing every
//! line into a `Value`, or fails on the same line.
//!
//! Writer: events, frames and whole files render to the same bytes as
//! building a `Value` and printing it.

use obs::jsonl::{self, EventRecord, JsonlError, ObjectWriter, Scanner};
use obs::{AuditLog, DecisionRecord, Event, EventBus, FrameSet};
use proptest::prelude::*;
use serde_json::Value;
use simtime::StackFrame;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------- oracles

/// What the `Value` path makes of one `events.jsonl`: the events in file
/// order, `Err(Some(line))` for a bad line, `Err(None)` for a count that
/// does not match the meta line.
type Parsed = Result<Vec<Rec>, Option<usize>>;

#[derive(Debug, Clone, PartialEq)]
struct Rec {
    t: f64,
    dur: Option<f64>,
    lane: String,
    kind: String,
    iter: Option<u64>,
    part: Option<u64>,
    block: Option<u64>,
    attrs: BTreeMap<String, f64>,
}

/// `serde_json::from_str`, with the shim's one panic (a `\u` escape cut
/// by a multi-byte character) read as the rejection it stands for.
fn value_of(line: &str) -> Option<Value> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let parsed = std::panic::catch_unwind(|| serde_json::from_str(line).ok());
    std::panic::set_hook(hook);
    parsed.unwrap_or(None)
}

fn oracle_events(text: &str) -> Parsed {
    let mut out = Vec::new();
    let mut declared: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = value_of(line).ok_or(Some(i + 1))?;
        let obj = v.as_object().ok_or(Some(i + 1))?;
        if obj.contains_key("schema") {
            if let Some(n) = obj.get("events").and_then(Value::as_u64) {
                declared = Some(declared.unwrap_or(0) + n);
            }
            continue;
        }
        let num = |key: &str| obj.get(key).and_then(Value::as_f64);
        let int = |key: &str| obj.get(key).and_then(Value::as_u64);
        let text = |key: &str| obj.get(key).and_then(Value::as_str).map(str::to_string);
        let mut attrs = BTreeMap::new();
        if let Some(a) = obj.get("attrs").and_then(Value::as_object) {
            for (k, v) in a {
                if let Some(f) = v.as_f64() {
                    attrs.insert(k.clone(), f);
                }
            }
        }
        out.push(Rec {
            t: num("t").ok_or(Some(i + 1))?,
            dur: num("dur"),
            lane: text("lane").ok_or(Some(i + 1))?,
            kind: text("kind").ok_or(Some(i + 1))?,
            iter: int("iter"),
            part: int("part"),
            block: int("block"),
            attrs,
        });
    }
    match declared {
        Some(n) if n != out.len() as u64 => Err(None),
        _ => Ok(out),
    }
}

fn codec_events(text: &str) -> Parsed {
    let mut out = Vec::new();
    jsonl::read_events(text, |e: EventRecord| {
        // The flat vector must already be what the map would iterate.
        assert!(e.attrs.iter().zip(e.attrs.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        out.push(Rec {
            t: e.t,
            dur: e.dur,
            lane: e.lane.to_string(),
            kind: e.kind.to_string(),
            iter: e.iter,
            part: e.part,
            block: e.block,
            attrs: e.attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    })
    .map_err(|e| match e {
        JsonlError::Line { line, .. } => Some(line),
        JsonlError::Count { .. } => None,
    })?;
    Ok(out)
}

/// NaN-tolerant equality: two parses agree when every float has the same
/// bits (the inputs can hold `1e999`, never NaN, but be strict anyway).
fn same(a: &Parsed, b: &Parsed) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn event_value(e: &Event) -> Value {
    let mut m = BTreeMap::new();
    m.insert("t".to_string(), Value::Number(e.t));
    if let Some(d) = e.dur {
        m.insert("dur".to_string(), Value::Number(d));
    }
    m.insert("lane".to_string(), Value::String(e.lane.to_string()));
    m.insert("kind".to_string(), Value::String(e.kind.to_string()));
    if let Some(i) = e.iteration {
        m.insert("iter".to_string(), Value::Number(i as f64));
    }
    if let Some(p) = e.partition {
        m.insert("part".to_string(), Value::Number(p as f64));
    }
    if let Some(b) = e.block {
        m.insert("block".to_string(), Value::Number(b as f64));
    }
    if !e.attrs.is_empty() {
        let mut attrs = BTreeMap::new();
        for (k, v) in &e.attrs {
            attrs.insert((*k).to_string(), Value::Number(*v));
        }
        m.insert("attrs".to_string(), Value::Object(attrs));
    }
    Value::Object(m)
}

fn oracle_events_jsonl<E: std::borrow::Borrow<Event>>(events: &[E]) -> String {
    let mut lines: Vec<(f64, String)> = events
        .iter()
        .map(|e| (e.borrow().t, event_value(e.borrow()).to_json_string()))
        .collect();
    lines.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = String::new();
    if !lines.is_empty() {
        let mut meta = BTreeMap::new();
        meta.insert(
            "schema".to_string(),
            Value::String(obs::EVENTS_SCHEMA.to_string()),
        );
        meta.insert("events".to_string(), Value::Number(lines.len() as f64));
        out.push_str(&Value::Object(meta).to_json_string());
        out.push('\n');
    }
    for (_, l) in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

fn oracle_stacks_jsonl(frames: &[StackFrame]) -> String {
    if frames.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let mut meta = BTreeMap::new();
    meta.insert(
        "schema".to_string(),
        Value::String(obs::STACKS_SCHEMA.to_string()),
    );
    meta.insert("frames".to_string(), Value::Number(frames.len() as f64));
    out.push_str(&Value::Object(meta).to_json_string());
    out.push('\n');
    for f in frames {
        let mut m = BTreeMap::new();
        m.insert("t0".to_string(), Value::Number(f.t0));
        m.insert("t1".to_string(), Value::Number(f.t1));
        m.insert("lane".to_string(), Value::String(f.lane.to_string()));
        m.insert("frame".to_string(), Value::String(f.frame.to_string()));
        out.push_str(&Value::Object(m).to_json_string());
        out.push('\n');
    }
    out
}

/// The frames the `Value` path reads from a `stacks.jsonl`, before
/// canonical ordering, or the line it fails on.
fn oracle_stacks(text: &str) -> Result<Vec<StackFrame>, usize> {
    let mut frames = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = value_of(line).ok_or(i + 1)?;
        if v.get("schema").is_some() {
            continue;
        }
        let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(i + 1);
        let s = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(Into::into)
                .ok_or(i + 1)
        };
        frames.push(StackFrame {
            lane: s("lane")?,
            frame: s("frame")?,
            t0: num("t0")?,
            t1: num("t1")?,
        });
    }
    Ok(frames)
}

// ------------------------------------------------------------- generators

/// A small deterministic generator, seeded per case by the proptest shim.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }
    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "  ", "\t", " \r"])
    }
}

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-0.0",
    "1",
    "3",
    "42",
    "-1",
    "-7",
    "0.5",
    "2.5",
    "-2.5",
    "1e3",
    "1E+2",
    "1e-7",
    "5e-324",
    "1e999",
    "-1e999",
    "1.7976931348623157e308",
    "0.07099967177173912",
    "1e15",
    "999999999999999",
    "18446744073709551616",
    "01",
    "1.",
    "-.5",
];
const BAD_NUMBERS: &[&str] = &["-", "1e", "1.2.3", "--1", "1e+", "+1", ".5", "1-2"];
const STRINGS: &[&str] = &[
    r#""""#,
    r#""node0-cpu-c0""#,
    r#""net-rank3""#,
    r#""kernel""#,
    r#""msg-send""#,
    r#""a\"b""#,
    r#""back\\slash""#,
    r#""tab\there\nnewline\r\/\b\f""#,
    "\"\\u00e9\\u0041\\n\"",
    r#""\ud800 lone surrogate""#,
    r#""\u+041 sign""#,
    "\"raw é — 日本 🚀\"",
    "\"raw control \u{1} char\"",
];
const BAD_STRINGS: &[&str] = &[
    r#""\x""#,
    r#""\u12""#,
    r#""\uZZZZ""#,
    r#""unterminated"#,
    r#""\"#,
];
const KEYS: &[&str] = &[
    "t", "dur", "lane", "kind", "iter", "part", "block", "attrs", "schema", "events", "extra", "x",
    "T", "",
];
const ATTR_KEYS: &[&str] = &["flops", "bytes", "flow", "depth", "wait_s", "a\\\"b", "é"];

fn gen_value(g: &mut Gen, depth: usize) -> String {
    match g.below(if depth == 0 { 8 } else { 6 }) {
        0 | 1 => g.pick(NUMBERS).to_string(),
        2 => g.pick(STRINGS).to_string(),
        3 => g.pick(&["null", "true", "false"]).to_string(),
        4 if g.chance(3) => g.pick(BAD_NUMBERS).to_string(),
        4 => g.pick(NUMBERS).to_string(),
        5 if g.chance(3) => g
            .pick(&[BAD_STRINGS, &["nul", "tru", "fals", "nil"][..]].concat())
            .to_string(),
        5 => g.pick(STRINGS).to_string(),
        6 => {
            let n = g.below(4);
            let items: Vec<String> = (0..n).map(|_| gen_value(g, depth + 1)).collect();
            format!(
                "[{}{}{}]",
                g.ws(),
                items.join(&format!("{},{}", g.ws(), g.ws())),
                g.ws()
            )
        }
        _ => {
            let members = g.below(4);
            gen_object(g, depth + 1, ATTR_KEYS, members)
        }
    }
}

fn gen_object(g: &mut Gen, depth: usize, keys: &[&str], members: usize) -> String {
    let mut parts = Vec::new();
    for _ in 0..members {
        let key = g.pick(keys);
        let value = gen_value(g, depth);
        parts.push(format!("{}\"{key}\"{}:{}{value}", g.ws(), g.ws(), g.ws()));
    }
    format!("{{{}{}}}", parts.join(&format!("{},", g.ws())), g.ws())
}

/// One line that is usually a well-formed event, sometimes a meta line,
/// sometimes damaged.
fn gen_line(g: &mut Gen) -> String {
    let mut members: Vec<String> = Vec::new();
    let mut push = |g: &mut Gen, key: &str, value: String| {
        members.push(format!("{}\"{key}\"{}:{}{value}", g.ws(), g.ws(), g.ws()));
    };
    // The required members, usually of the right type.
    for (key, pool) in [("t", NUMBERS), ("lane", STRINGS), ("kind", STRINGS)] {
        if g.chance(98) {
            let v = if g.chance(96) {
                g.pick(pool).to_string()
            } else {
                gen_value(g, 1)
            };
            push(g, key, v);
        }
    }
    for key in ["dur", "iter", "part", "block"] {
        if g.chance(50) {
            let v = if g.chance(85) {
                g.pick(NUMBERS).to_string()
            } else {
                gen_value(g, 1)
            };
            push(g, key, v);
        }
    }
    if g.chance(60) {
        let v = if g.chance(85) {
            let n = g.below(5);
            gen_object(g, 1, ATTR_KEYS, n)
        } else {
            gen_value(g, 1)
        };
        push(g, "attrs", v);
    }
    if g.chance(4) {
        push(g, "schema", "\"prs-events-v1\"".to_string());
        if g.chance(70) {
            let v = g
                .pick(&["0", "1", "2", "3", "5", "1.5", "-1", "\"3\""])
                .to_string();
            push(g, "events", v);
        }
    }
    // Unknown members and repeats of known ones.
    for _ in 0..g.below(4) {
        let key = if g.chance(15) {
            g.pick(KEYS)
        } else {
            g.pick(&["extra", "x", "T", "", "dur", "iter"])
        };
        let v = gen_value(g, 0);
        push(g, key, v);
    }
    // Any order.
    for i in (1..members.len()).rev() {
        members.swap(i, g.below(i + 1));
    }
    let mut line = format!("{{{}{}}}", members.join(","), g.ws());
    match g.below(90) {
        0 => line.push_str(g.pick(&["x", "}", ",", " {}", "1"])),
        1 => {
            let mut cut = g.below(line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line.truncate(cut);
        }
        2 => {
            line = g
                .pick(&[
                    "42",
                    "[1,2]",
                    "\"str\"",
                    "null",
                    "not json",
                    "[",
                    "{",
                    "{\"t\":1,}",
                ])
                .to_string()
        }
        3 => line = format!("\u{a0}{line}"),
        4 => line.clear(),
        5 => line = format!("  {line}\t"),
        _ => {}
    }
    line
}

fn gen_file(g: &mut Gen) -> String {
    let lines = g.below(7);
    let mut text = String::new();
    for _ in 0..lines {
        text.push_str(&gen_line(g));
        text.push_str(g.pick(&["\n", "\n", "\r\n"]));
    }
    if g.chance(30) {
        text.push_str(&gen_line(g)); // no final newline
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn reader_agrees_with_the_value_path_on_generated_files(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let text = gen_file(&mut g);
        let (want, got) = (oracle_events(&text), codec_events(&text));
        prop_assert!(same(&want, &got), "file {text:?}\n value path: {want:?}\n codec:      {got:?}");
    }

    #[test]
    fn scanner_accepts_exactly_what_from_str_accepts(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut text = gen_value(&mut g, 0);
        if g.chance(10) {
            let mut cut = g.below(text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
        if g.chance(10) {
            text.push_str(g.pick(&[" ", "x", ",", "]", " 1"]));
        }
        let mut sc = Scanner::new(&text);
        let scanned = sc.skip_value().and_then(|()| sc.end()).is_ok();
        prop_assert_eq!(scanned, value_of(&text).is_some(), "{:?}", text);
    }

    #[test]
    fn stacks_reader_agrees_with_the_value_path(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut text = String::new();
        for _ in 0..g.below(5) {
            let mut members: Vec<String> = Vec::new();
            for (key, pool) in [("lane", STRINGS), ("frame", STRINGS), ("t0", NUMBERS), ("t1", NUMBERS)] {
                if g.chance(95) {
                    let v = if g.chance(92) { g.pick(pool).to_string() } else { gen_value(&mut g, 1) };
                    members.push(format!("\"{key}\":{v}"));
                }
            }
            if g.chance(10) {
                members.push("\"schema\":\"prs-stacks-v1\"".to_string());
            }
            if g.chance(30) {
                let key = g.pick(&["lane", "t0", "extra"]);
                members.push(format!("\"{key}\":{}", gen_value(&mut g, 0)));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, g.below(i + 1));
            }
            let line = match g.below(25) {
                0 => "[1]".to_string(),
                1 => "{\"lane\":".to_string(),
                _ => format!("{{{}}}", members.join(",")),
            };
            text.push_str(&line);
            text.push('\n');
        }
        let want = oracle_stacks(&text).map(FrameSet::from_frames);
        let got = FrameSet::parse_stacks_jsonl(&text);
        match (&want, &got) {
            (Ok(w), Ok(g)) => prop_assert_eq!(format!("{:?}", w.frames()), format!("{:?}", g.frames()), "{}", text),
            (Err(line), Err(JsonlError::Line { line: got_line, .. })) => prop_assert_eq!(line, got_line, "{}", text),
            _ => prop_assert!(false, "{text:?}\n value path: {want:?}\n codec: {got:?}"),
        }
    }

    #[test]
    fn decision_reader_agrees_with_the_value_path(seed in any::<u64>()) {
        let mut g = Gen(seed);
        const DECISION_KEYS: &[&str] = &[
            "node", "iter", "ai_cpu", "ai_gpu", "cpu_ridge", "gpu_ridge", "gpus_total", "gpus_usable",
            "p", "block_items", "items", "bytes", "pred_cpu_s", "pred_gpu_s", "pred_map_s",
            "obs_cpu_s", "obs_gpu_s", "obs_map_s", "map_err", "mode", "trigger", "regime", "action",
        ];
        let mut text = String::new();
        for _ in 0..g.below(5) {
            let mut members: Vec<String> = Vec::new();
            if g.chance(90) {
                members.push(format!("\"node\":{}", g.pick(NUMBERS)));
                members.push(format!("\"iter\":{}", g.pick(NUMBERS)));
            }
            for _ in 0..g.below(12) {
                let key = g.pick(DECISION_KEYS);
                let v = match g.below(5) {
                    0 => g.pick(STRINGS).to_string(),
                    1 => gen_value(&mut g, 0),
                    _ => g.pick(NUMBERS).to_string(),
                };
                members.push(format!("\"{key}\":{v}"));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, g.below(i + 1));
            }
            text.push_str(&format!("{{{}}}", members.join(",")));
            text.push_str(g.pick(&["\n", "\n", "x\n", "\n\n"]));
        }
        let want: Vec<DecisionRecord> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(value_of)
            .filter_map(|v| DecisionRecord::from_value(&v))
            .collect();
        let got = AuditLog::parse_jsonl(&text);
        prop_assert_eq!(format!("{:?}", want), format!("{:?}", got), "{}", text);
    }
}

// ----------------------------------------------------------------- reader

#[test]
fn reader_edge_cases_match_the_value_path() {
    for text in [
        "",
        "\n\n  \n",
        "{}",
        "[]",
        "42\n",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"} trailing",
        "{\"t\":1,\"t\":\"x\",\"lane\":\"l\",\"kind\":\"k\"}",
        "{\"t\":\"x\",\"t\":2,\"lane\":\"l\",\"kind\":\"k\"}",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\",\"iter\":-1,\"part\":1.5,\"block\":1e999}",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\",\"attrs\":{\"a\":1,\"a\":\"x\",\"b\":2,\"b\":3}}",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\",\"attrs\":{\"a\":1},\"attrs\":{\"b\":2}}",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\",\"attrs\":{\"a\":1},\"attrs\":7}",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\",\"attrs\":[1,2]}",
        "{\"schema\":\"prs-events-v1\",\"events\":1}\n{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n",
        "{\"schema\":\"prs-events-v1\",\"events\":2}\n{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n",
        "{\"schema\":\"prs-events-v1\",\"events\":0}\n{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n",
        "{\"schema\":\"prs-events-v1\",\"events\":\"1\"}\n{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n",
        "{\"schema\":1,\"t\":\"not checked on a meta line\"}\n",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n{\"t\":2,\"lane\":\"l\"}\n",
        "{\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n{\"t\":2,\"lane\":\"l\",\"kind\":\"unterminated",
        "{\"t\":1,\"lane\":\"\\u00e9\\n\",\"kind\":\"k\",\"x\":{\"deep\":[1,[2,{\"y\":null}]]}}",
    ] {
        let (want, got) = (oracle_events(text), codec_events(text));
        assert!(same(&want, &got), "file {text:?}\n value path: {want:?}\n codec:      {got:?}");
    }
}

#[test]
fn count_mismatch_is_a_typed_error_naming_both_counts() {
    let text = "{\"events\":3,\"schema\":\"prs-events-v1\"}\n\
                {\"t\":1,\"lane\":\"l\",\"kind\":\"k\"}\n\
                {\"t\":2,\"lane\":\"l\",\"kind\":\"k\"}\n";
    let err = jsonl::events_horizon(text).unwrap_err();
    assert_eq!(
        err,
        JsonlError::Count {
            file: "events.jsonl",
            declared: 3,
            read: 2
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains("declares 3 ") && msg.contains(" 2 were read"),
        "{msg}"
    );
    // The horizon pass rejects what the full reader rejects, and agrees
    // with it on what it accepts.
    assert!(codec_events(text).is_err());
    let whole = text.replace("\"events\":3", "\"events\":2");
    assert_eq!(jsonl::events_horizon(&whole), Ok(2.0));
    assert_eq!(codec_events(&whole).map(|v| v.len()), Ok(2));
}

// ----------------------------------------------------------------- writer

fn event(t: f64, dur: Option<f64>, lane: &str, kind: &str, attrs: &[(&'static str, f64)]) -> Event {
    Event {
        t,
        dur,
        lane: Arc::from(lane),
        kind: Arc::from(kind),
        iteration: None,
        partition: None,
        block: None,
        attrs: attrs.to_vec(),
    }
}

fn log_of(events: &[Event]) -> obs::EventLog {
    let mut log = obs::EventLog::new();
    for e in events {
        log.push_event(e);
    }
    log
}

fn adversarial_events() -> Vec<Event> {
    let numbers = [
        0.0,
        -0.0,
        1.0,
        0.07,
        0.07099967177173912,
        999999999999999.0,
        1e15,
        1e15 + 2.0,
        -1e15,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0 / 3.0,
    ];
    let lanes = [
        "node0-cpu-c0",
        "lane \"quoted\"",
        "back\\slash",
        "ctl\u{1}\u{1f}\n\r\t\u{8}\u{c}",
        "é — 日本 🚀",
        "",
        "a/b\u{7f}",
    ];
    let mut out = Vec::new();
    for (i, &n) in numbers.iter().enumerate() {
        for (j, lane) in lanes.iter().enumerate() {
            let mut e = event(
                n,
                (i % 2 == 0).then_some(numbers[(i + j) % numbers.len()]),
                lane,
                lanes[(i + j) % lanes.len()],
                &[],
            );
            e.iteration = (j % 3 == 0).then_some(i as u64);
            e.partition = (j % 4 == 1).then_some(u64::MAX);
            e.block = (j % 5 == 2).then_some(1 << 53);
            e.attrs = match (i + j) % 5 {
                0 => vec![],
                1 => vec![("flops", n)],
                // Out of order, and `bytes` twice: the last one wins.
                2 => vec![("flow", 7.0), ("bytes", 1.0), ("at_s", n), ("bytes", 2.0)],
                3 => vec![("z", 1.0), ("a\"b", 2.0), ("", 3.0), ("é", n), ("A", -0.0)],
                _ => vec![("k", 1.0), ("k", 2.0), ("k", n)],
            };
            out.push(e);
        }
    }
    out
}

#[test]
fn event_lines_match_the_value_rendering_byte_for_byte() {
    let events = adversarial_events();
    let log = log_of(&events);
    for (e, record) in events.iter().zip(&log) {
        let mut line = String::new();
        jsonl::write_event(&mut line, record);
        assert_eq!(line, event_value(e).to_json_string());
    }
}

#[test]
fn events_jsonl_matches_the_value_rendering_byte_for_byte() {
    // Through the bus: real timestamps, many ties on `t` (order falls to
    // the rendered bytes), appended in a scrambled order.
    let bus = EventBus::recording();
    let t = simtime::SimTime::from_secs_f64;
    let mut g = Gen(11);
    for i in 0..400u64 {
        let start = (g.below(20) as f64) * 0.01;
        let lane = format!("node{}-cpu-c{}", g.below(3), g.below(2));
        let draft = if g.chance(60) {
            bus.span(
                &lane,
                g.pick(&["cpu-task", "kernel", "map"]),
                t(start),
                t(start + 0.005),
            )
        } else {
            bus.event(&lane, g.pick(&["msg-send", "msg-recv", "retry"]), t(start))
        };
        let mut draft = draft.unwrap();
        if g.chance(50) {
            draft = draft.iteration(g.below(3));
        }
        if g.chance(30) {
            draft = draft.partition(g.below(4)).block(g.below(9));
        }
        if g.chance(70) {
            draft = draft.attr("flops", (i * 1000) as f64).attr("bytes", 4096.0);
        }
        if g.chance(20) {
            draft = draft.attr("bytes", 1.5).attr("at_s", start);
        }
        draft.commit();
    }
    assert_eq!(bus.to_jsonl(), oracle_events_jsonl(&bus.events()));
    // And straight from adversarial events, via a capture (same lines,
    // same order rule).
    let events = adversarial_events();
    let capture = obs::Capture {
        name: "capture-0".into(),
        incident: 0,
        t0: 0.0,
        t1: 1.0,
        events: log_of(&events),
        folds: Vec::new(),
        rollup_period: 0.5,
    };
    let rendered = capture.to_jsonl();
    let body = oracle_events_jsonl(&events);
    let (_, want) = body.split_once('\n').unwrap();
    let (_, got) = rendered.split_once('\n').unwrap();
    assert_eq!(got, want);
    assert_eq!(EventBus::disabled().to_jsonl(), "");
    assert_eq!(EventBus::recording().to_jsonl(), "");
}

#[test]
fn stacks_jsonl_matches_the_value_rendering_and_round_trips() {
    let mut frames = Vec::new();
    for (i, e) in adversarial_events().into_iter().enumerate() {
        if e.t.is_nan() || e.t.is_infinite() {
            continue; // frames order by `total_cmp`; keep the set finite
        }
        frames.push(StackFrame {
            lane: e.lane.clone(),
            frame: e.kind.clone(),
            t0: e.t,
            t1: e.t + 1.0 + i as f64,
        });
    }
    let set = FrameSet::from_frames(frames);
    assert!(!set.is_empty());
    let text = set.to_stacks_jsonl();
    assert_eq!(text, oracle_stacks_jsonl(set.frames()));
    let back = FrameSet::parse_stacks_jsonl(&text).unwrap();
    assert_eq!(back.frames(), set.frames());
    assert_eq!(
        oracle_stacks(&text)
            .map(FrameSet::from_frames)
            .unwrap()
            .frames(),
        set.frames()
    );
    assert_eq!(FrameSet::default().to_stacks_jsonl(), "");
}

#[test]
fn formatters_follow_the_shim_conformance_tables() {
    for (n, want) in serde_json::conformance::numbers() {
        let mut out = String::new();
        jsonl::write_f64(&mut out, n);
        assert_eq!(out, want, "{n:e}");
    }
    for (s, want) in serde_json::conformance::STRINGS {
        let mut out = String::new();
        jsonl::write_str(&mut out, s);
        assert_eq!(out, *want, "{s:?}");
        // ...and the scanner reads it back.
        let mut sc = Scanner::new(want);
        assert_eq!(sc.string().unwrap().as_deref(), Some(*s));
        sc.end().unwrap();
    }
    for (keys, want) in serde_json::conformance::KEY_ORDER {
        // The writer leaves ordering to its caller: feed it what a
        // `BTreeMap` would, and the bytes are the table's.
        let sorted: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
        let mut out = String::new();
        let mut o = ObjectWriter::begin(&mut out);
        for k in sorted {
            o.num(k, 0.0);
        }
        o.end();
        assert_eq!(out, *want);
    }
    for n in [
        0.0,
        1.0,
        41135.0,
        1e15,
        -1.0,
        0.5,
        f64::NAN,
        f64::INFINITY,
        -0.0,
        1.8446744073709552e19,
    ] {
        assert_eq!(jsonl::as_u64(n), Value::Number(n).as_u64(), "{n}");
    }
}
