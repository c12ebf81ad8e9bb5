//! The bounded-memory flight recorder: exact recent history, aggregate
//! older history, incident-triggered captures.
//!
//! `prs run --obs` retains every event the run ever emitted — fine for a
//! two-node trace, a scaling wall for the 1000-node runs the engine
//! rework made cheap. The recorder closes that gap the way production
//! telemetry pipelines do: a per-lane ring of *exact* events covering
//! the trailing [`RecorderConfig::window`] virtual seconds, a hard
//! [`RecorderConfig::budget`] on resident events, and everything evicted
//! **folded** into coarse per-lane/per-kind rollup bins of width
//! [`RecorderConfig::rollup_period`] — never dropped silently. Recent
//! history is exact; old history is aggregate; memory is O(budget).
//!
//! # Determinism
//!
//! Everything the recorder does is a pure function of event *content*
//! and virtual time, never of append order or wall clocks:
//!
//! - the driver pumps at iteration boundaries, passing the boundary's
//!   virtual `now` and a `stable_before` watermark (the previous
//!   iteration's start). Only events strictly older than the watermark
//!   are eligible for eviction — every rank is guaranteed to have
//!   committed its events below that watermark, under every engine;
//! - eviction order is the canonical `(t, rendered bytes)` order the
//!   exporters use, so ties break identically everywhere;
//! - fold bins are keyed by `(lane, kind, floor(t / rollup_period))` and
//!   folds are commutative sums, so ingest order cannot leak.
//!
//! The result: `capture-<id>.jsonl` and everything derived from it is
//! byte-identical across engines, seeds, and repeat runs — the property
//! `tests/recorder_scenarios.rs` and the engine determinism suite pin.
//!
//! # Zero virtual-time overhead
//!
//! Pumping reads the bus and mutates host-side state only; it never
//! holds, spawns, or sends inside the simulation, so a recorded run's
//! virtual clock is bit-identical to an unrecorded one
//! (`tests/recorder_scenarios.rs` asserts the bits).

use crate::bus::{Event, EventBus};
use crate::jsonl::CanonicalLines;
use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema tag on the meta line of every `capture-<incident-id>.jsonl`.
pub const CAPTURE_SCHEMA: &str = "prs-capture-v1";

/// Flight-recorder retention policy. `budget == 0` disables recording
/// entirely (the [`Recorder`] constructors treat it as "off"), which is
/// what lets `JobConfig` carry the config by value with a free default.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecorderConfig {
    /// Virtual seconds of exact per-lane history to retain.
    pub window: f64,
    /// Hard cap on resident exact events across all lanes.
    pub budget: usize,
    /// Width of the fold bins evicted events aggregate into, virtual
    /// seconds.
    pub rollup_period: f64,
}

impl RecorderConfig {
    /// The enabled defaults: a 5-virtual-second exact window, 65536
    /// resident events, half-second fold bins.
    pub fn enabled() -> Self {
        RecorderConfig {
            window: 5.0,
            budget: 65_536,
            rollup_period: 0.5,
        }
    }

    /// The disabled config (budget 0) — `JobConfig`'s default.
    pub fn disabled() -> Self {
        RecorderConfig {
            window: 0.0,
            budget: 0,
            rollup_period: 0.0,
        }
    }

    /// Whether this config turns recording on.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl serde::Serialize for RecorderConfig {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("window_s".to_string(), Value::Number(self.window));
        m.insert("budget".to_string(), Value::Number(self.budget as f64));
        m.insert(
            "rollup_period_s".to_string(),
            Value::Number(self.rollup_period),
        );
        Value::Object(m)
    }
}

/// One fold bin: the aggregate shadow of evicted `(lane, kind)` events
/// in `[bin·period, (bin+1)·period)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldBin {
    /// Lane the folded events belonged to.
    pub lane: String,
    /// Event kind folded.
    pub kind: String,
    /// Bin index (`floor(t / rollup_period)`).
    pub bin: u64,
    /// Events folded into this bin.
    pub count: u64,
    /// Summed span duration (0 contribution from point events).
    pub dur: f64,
    /// Earliest folded start time.
    pub t_min: f64,
    /// Latest folded end time.
    pub t_max: f64,
}

impl FoldBin {
    fn to_value(&self, period: f64) -> Value {
        let mut m = BTreeMap::new();
        m.insert("fold".to_string(), Value::String(self.kind.clone()));
        m.insert("lane".to_string(), Value::String(self.lane.clone()));
        m.insert("bin".to_string(), Value::Number(self.bin as f64));
        m.insert(
            "t0".to_string(),
            Value::Number(self.bin as f64 * period),
        );
        m.insert("count".to_string(), Value::Number(self.count as f64));
        m.insert("dur_s".to_string(), Value::Number(self.dur));
        m.insert("t_min".to_string(), Value::Number(self.t_min));
        m.insert("t_max".to_string(), Value::Number(self.t_max));
        Value::Object(m)
    }
}

/// A frozen incident window rendered to a self-contained artifact:
/// the exact retained events inside `[t0, t1]` plus the fold bins
/// overlapping it, so the postmortem can tell exact from aggregate.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Artifact stem, `capture-<incident-id>`.
    pub name: String,
    /// Incident id the capture belongs to.
    pub incident: u64,
    /// Window start, virtual seconds.
    pub t0: f64,
    /// Window end, virtual seconds.
    pub t1: f64,
    /// Exact events inside the window, canonically ordered.
    pub events: Vec<Event>,
    /// Fold bins overlapping the window (aggregate-only history).
    pub folds: Vec<FoldBin>,
    /// Fold-bin width the recorder used, echoed for self-containment.
    pub rollup_period: f64,
}

impl Capture {
    /// The artifact file name, `capture-<incident-id>.jsonl`.
    pub fn file_name(&self) -> String {
        format!("{}.jsonl", self.name)
    }

    /// Canonical JSONL rendering: a meta line, then fold lines, then
    /// exact event lines, each group sorted by `(t, rendered bytes)`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut meta = BTreeMap::new();
        meta.insert(
            "schema".to_string(),
            Value::String(CAPTURE_SCHEMA.to_string()),
        );
        meta.insert("capture".to_string(), Value::String(self.name.clone()));
        meta.insert("incident".to_string(), Value::Number(self.incident as f64));
        meta.insert("t0".to_string(), Value::Number(self.t0));
        meta.insert("t1".to_string(), Value::Number(self.t1));
        meta.insert("events".to_string(), Value::Number(self.events.len() as f64));
        meta.insert("folds".to_string(), Value::Number(self.folds.len() as f64));
        meta.insert(
            "rollup_period_s".to_string(),
            Value::Number(self.rollup_period),
        );
        out.push_str(&Value::Object(meta).to_json_string());
        out.push('\n');
        let mut fold_lines: Vec<(f64, String)> = self
            .folds
            .iter()
            .map(|f| {
                (
                    f.bin as f64 * self.rollup_period,
                    f.to_value(self.rollup_period).to_json_string(),
                )
            })
            .collect();
        fold_lines.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, l) in fold_lines {
            out.push_str(&l);
            out.push('\n');
        }
        CanonicalLines::render(&self.events).append_to(&mut out);
        out
    }
}

/// Memory-accounting snapshot of the recorder, for the `recorder` block
/// in `rollup.jsonl` and the `prs_recorder_*` metric families.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecorderSummary {
    /// Exact events currently resident.
    pub retained: usize,
    /// Events evicted into fold bins over the run.
    pub folded: u64,
    /// High-water mark of resident exact events.
    pub peak_retained: usize,
    /// Estimated resident bytes (events plus fold bins).
    pub bytes: u64,
    /// Distinct fold bins.
    pub fold_bins: usize,
    /// Captures emitted.
    pub captures: usize,
    /// Configured exact window, virtual seconds.
    pub window: f64,
    /// Configured resident-event budget.
    pub budget: usize,
}

impl RecorderSummary {
    /// Deterministic JSON object for the `recorder` block.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        let mut num = |k: &str, v: f64| {
            m.insert(k.to_string(), Value::Number(v));
        };
        num("retained", self.retained as f64);
        num("folded", self.folded as f64);
        num("peak_retained", self.peak_retained as f64);
        num("bytes", self.bytes as f64);
        num("fold_bins", self.fold_bins as f64);
        num("captures", self.captures as f64);
        num("window_s", self.window);
        num("budget", self.budget as f64);
        Value::Object(m)
    }

    /// Registers the `prs_recorder_events_retained` /
    /// `prs_recorder_events_folded` / `prs_recorder_bytes` gauge families
    /// (plus the peak high-water mark and capture count).
    pub fn register_metrics(&self, m: &MetricsRegistry) {
        m.gauge_set("prs_recorder_events_retained", &[], self.retained as f64);
        m.gauge_set("prs_recorder_events_folded", &[], self.folded as f64);
        m.gauge_set("prs_recorder_bytes", &[], self.bytes as f64);
        m.gauge_set(
            "prs_recorder_events_retained_peak",
            &[],
            self.peak_retained as f64,
        );
        m.gauge_set("prs_recorder_captures", &[], self.captures as f64);
    }
}

/// Rough resident size of one event: the struct plus its attribute
/// payload (lane/kind are interned `Arc`s, charged once elsewhere).
fn event_bytes(e: &Event) -> u64 {
    (std::mem::size_of::<Event>() + e.attrs.len() * std::mem::size_of::<(&str, f64)>()) as u64
}

struct RecorderState {
    /// Absolute bus cursor already ingested.
    cursor: usize,
    /// Exact retained events (unsorted; canonically sorted on demand).
    retained: Vec<Event>,
    /// Fold bins keyed `(lane, kind, bin)` — BTreeMap for deterministic
    /// iteration.
    folds: BTreeMap<(String, String, u64), FoldBin>,
    /// Monotone eviction horizon: events below it were folded.
    horizon: f64,
    /// Windows protected from eviction (`freeze`), as `(t0, t1)`.
    frozen: Vec<(f64, f64)>,
    /// Captures emitted so far.
    captures: Vec<Capture>,
    folded: u64,
    peak_retained: usize,
}

struct RecorderInner {
    cfg: RecorderConfig,
    /// Whether pumps trim the ingested prefix off the bus (recorder-only
    /// runs) or leave it resident (a full `--obs` export also wants it).
    trim_bus: bool,
    state: Mutex<RecorderState>,
}

/// The shared flight-recorder handle. Like every sink in this crate the
/// default value is *disabled* and every call on it is a no-op branch;
/// clones share the underlying state.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    fn with_mode(cfg: RecorderConfig, trim_bus: bool) -> Self {
        if !cfg.is_enabled() {
            return Self::default();
        }
        Self {
            inner: Some(Arc::new(RecorderInner {
                cfg,
                trim_bus,
                state: Mutex::new(RecorderState {
                    cursor: 0,
                    retained: Vec::new(),
                    folds: BTreeMap::new(),
                    horizon: 0.0,
                    frozen: Vec::new(),
                    captures: Vec::new(),
                    folded: 0,
                    peak_retained: 0,
                }),
            })),
        }
    }

    /// A recorder that *owns* retention: each pump trims the ingested
    /// prefix off the bus, so a `--record`-only run holds O(budget)
    /// events total. Use when no full `events.jsonl` export is wanted.
    pub fn bounded(cfg: RecorderConfig) -> Self {
        Self::with_mode(cfg, true)
    }

    /// A recorder that shadows the bus without trimming it — the full
    /// event history stays resident for an `--obs` export while captures
    /// still come from the recorder's bounded view.
    pub fn shadow(cfg: RecorderConfig) -> Self {
        Self::with_mode(cfg, false)
    }

    /// A disabled recorder (same as `Recorder::default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether pumps will actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The retention policy, or the disabled config when off.
    pub fn config(&self) -> RecorderConfig {
        self.inner
            .as_ref()
            .map_or_else(RecorderConfig::disabled, |i| i.cfg)
    }

    /// Ingests everything the bus appended since the last pump, then
    /// evicts: events older than both `stable_before` and
    /// `now - window` fold into their `(lane, kind, bin)` aggregate, and
    /// if the *stable* resident set still exceeds the budget, the oldest
    /// events (canonical order) fold too. Events inside a frozen window
    /// are never evicted. Callers pass the current virtual time and a
    /// watermark below which every producer is guaranteed to have
    /// committed (the driver uses the previous iteration's start) — that
    /// watermark is what keeps eviction engine-independent.
    pub fn pump(&self, bus: &EventBus, now: f64, stable_before: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        let (fresh, cursor) = bus.events_since(st.cursor);
        st.cursor = cursor;
        st.retained.extend(fresh);
        if st.retained.len() > st.peak_retained {
            st.peak_retained = st.retained.len();
        }
        if inner.trim_bus {
            bus.trim_to(cursor);
        }
        let horizon = (now - inner.cfg.window).min(stable_before);
        if horizon > st.horizon {
            st.horizon = horizon;
        }
        Self::evict(&mut st, &inner.cfg, stable_before);
    }

    /// Final pump after the simulation completed: every event is
    /// committed, so the stability watermark is the horizon itself and
    /// the budget binds exactly.
    pub fn settle(&self, bus: &EventBus) {
        let Some(inner) = &self.inner else { return };
        let now = {
            // End-of-run horizon: the latest event end the recorder saw.
            let mut st = inner.state.lock();
            let (fresh, cursor) = bus.events_since(st.cursor);
            st.cursor = cursor;
            st.retained.extend(fresh);
            if st.retained.len() > st.peak_retained {
                st.peak_retained = st.retained.len();
            }
            if inner.trim_bus {
                bus.trim_to(cursor);
            }
            st.retained
                .iter()
                .map(|e| e.t + e.dur.unwrap_or(0.0))
                .fold(st.horizon, f64::max)
        };
        let mut st = inner.state.lock();
        let horizon = now - inner.cfg.window;
        if horizon > st.horizon {
            st.horizon = horizon;
        }
        Self::evict(&mut st, &inner.cfg, f64::INFINITY);
    }

    /// Folds every eligible retained event: below the horizon, or —
    /// oldest first in canonical order — until the stable resident count
    /// fits the budget. `stable_before` bounds what eviction may touch.
    fn evict(st: &mut RecorderState, cfg: &RecorderConfig, stable_before: f64) {
        let frozen = st.frozen.clone();
        let protected =
            |e: &Event| frozen.iter().any(|(f0, f1)| e.t + e.dur.unwrap_or(0.0) >= *f0 && e.t <= *f1);
        // Time-based: everything strictly below the horizon folds.
        let horizon = st.horizon.min(stable_before);
        let mut evicted: Vec<Event> = Vec::new();
        st.retained.retain(|e| {
            if e.t < horizon && !protected(e) {
                evicted.push(e.clone());
                false
            } else {
                true
            }
        });
        // Budget-based: fold the canonically oldest stable events until
        // resident count fits. Only events below the stability watermark
        // participate, so the choice is identical under every engine.
        if st.retained.len() > cfg.budget {
            let stable: Vec<usize> = (0..st.retained.len())
                .filter(|&i| st.retained[i].t < stable_before && !protected(&st.retained[i]))
                .collect();
            let oldest_first = CanonicalLines::render(stable.iter().map(|&i| &st.retained[i]));
            let excess = st.retained.len() - cfg.budget;
            let mut drop_idx: Vec<usize> =
                oldest_first.positions().take(excess).map(|p| stable[p]).collect();
            drop_idx.sort_unstable_by(|a, b| b.cmp(a));
            for i in drop_idx {
                evicted.push(st.retained.swap_remove(i));
            }
        }
        let period = cfg.rollup_period.max(1e-12);
        for e in evicted {
            st.folded += 1;
            let bin = (e.t / period).floor().max(0.0) as u64;
            let end = e.t + e.dur.unwrap_or(0.0);
            let entry = st
                .folds
                .entry((e.lane.to_string(), e.kind.to_string(), bin))
                .or_insert_with(|| FoldBin {
                    lane: e.lane.to_string(),
                    kind: e.kind.to_string(),
                    bin,
                    count: 0,
                    dur: 0.0,
                    t_min: f64::INFINITY,
                    t_max: f64::NEG_INFINITY,
                });
            entry.count += 1;
            entry.dur += e.dur.unwrap_or(0.0);
            entry.t_min = entry.t_min.min(e.t);
            entry.t_max = entry.t_max.max(end);
        }
    }

    /// Protects `[t0, t1]` from future eviction — the trigger hook the
    /// watchdog fires when an incident opens, so the surrounding window
    /// (pre-roll and post-roll) survives until it is captured.
    pub fn freeze(&self, t0: f64, t1: f64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().frozen.push((t0, t1));
        }
    }

    /// Emits the frozen window `[t0, t1]` for incident `incident` as a
    /// self-contained [`Capture`]: the exact retained events inside it
    /// plus every fold bin overlapping it. The capture is also kept on
    /// the recorder (see [`Self::captures`]).
    pub fn capture(&self, incident: u64, t0: f64, t1: f64) -> Option<Capture> {
        let inner = self.inner.as_ref()?;
        let mut st = inner.state.lock();
        let period = inner.cfg.rollup_period.max(1e-12);
        let events: Vec<Event> = st
            .retained
            .iter()
            .filter(|e| e.t + e.dur.unwrap_or(0.0) >= t0 && e.t <= t1)
            .cloned()
            .collect();
        let folds: Vec<FoldBin> = st
            .folds
            .values()
            .filter(|f| (f.bin + 1) as f64 * period >= t0 && f.bin as f64 * period <= t1)
            .cloned()
            .collect();
        let capture = Capture {
            name: format!("capture-{incident}"),
            incident,
            t0,
            t1,
            events,
            folds,
            rollup_period: inner.cfg.rollup_period,
        };
        st.captures.push(capture.clone());
        Some(capture)
    }

    /// Snapshot of every capture emitted so far, in emission order.
    pub fn captures(&self) -> Vec<Capture> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.state.lock().captures.clone())
    }

    /// Memory-accounting snapshot (see [`RecorderSummary`]).
    pub fn summary(&self) -> RecorderSummary {
        let Some(inner) = &self.inner else {
            return RecorderSummary::default();
        };
        let st = inner.state.lock();
        let event_bytes_total: u64 = st.retained.iter().map(event_bytes).sum();
        let fold_bytes: u64 = st
            .folds
            .values()
            .map(|f| (std::mem::size_of::<FoldBin>() + f.lane.len() + f.kind.len()) as u64)
            .sum();
        RecorderSummary {
            retained: st.retained.len(),
            folded: st.folded,
            peak_retained: st.peak_retained,
            bytes: event_bytes_total + fold_bytes,
            fold_bins: st.folds.len(),
            captures: st.captures.len(),
            window: inner.cfg.window,
            budget: inner.cfg.budget,
        }
    }

    /// Registers the `prs_recorder_*` metric families from the current
    /// summary.
    pub fn register_metrics(&self, m: &MetricsRegistry) {
        if self.is_enabled() {
            self.summary().register_metrics(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimTime;

    fn cfg(window: f64, budget: usize) -> RecorderConfig {
        RecorderConfig {
            window,
            budget,
            rollup_period: 1.0,
        }
    }

    fn fill(bus: &EventBus, n: u64) {
        for i in 0..n {
            bus.span(
                &format!("node{}-cpu-c0", i % 2),
                "cpu-task",
                SimTime::from_secs_f64(i as f64 * 0.1),
                SimTime::from_secs_f64(i as f64 * 0.1 + 0.05),
            )
            .unwrap()
            .iteration(i as usize / 10)
            .commit();
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let bus = EventBus::recording();
        fill(&bus, 10);
        let rec = Recorder::disabled();
        rec.pump(&bus, 1.0, 1.0);
        rec.settle(&bus);
        assert!(!rec.is_enabled());
        assert_eq!(rec.summary(), RecorderSummary::default());
        assert!(rec.capture(0, 0.0, 1.0).is_none());
        assert_eq!(bus.resident_len(), 10, "a disabled recorder never trims");
    }

    #[test]
    fn bounded_mode_trims_the_bus_and_folds_instead_of_dropping() {
        let bus = EventBus::recording();
        let rec = Recorder::bounded(cfg(0.5, 1_000));
        fill(&bus, 100); // t in [0, 9.95]
        rec.pump(&bus, 10.0, 10.0);
        assert_eq!(bus.resident_len(), 0, "bounded mode owns retention");
        let s = rec.summary();
        assert_eq!(s.retained as u64 + s.folded, 100, "no silent drops");
        assert!(s.folded > 0, "events beyond the window folded");
        assert!(s.retained < 100);
        // Every fold bin accounts real events with sane time bounds.
        let folds: u64 = rec.captures().iter().map(|c| c.folds.len() as u64).sum();
        assert_eq!(folds, 0);
        assert!(s.bytes > 0);
    }

    #[test]
    fn budget_binds_after_settle() {
        let bus = EventBus::recording();
        let rec = Recorder::bounded(cfg(1e9, 16)); // window never evicts
        fill(&bus, 200);
        rec.pump(&bus, 20.0, 20.0);
        rec.settle(&bus);
        let s = rec.summary();
        assert_eq!(s.retained, 16, "budget caps resident events");
        assert_eq!(s.folded, 184);
        assert_eq!(s.peak_retained, 200, "peak observed before eviction");
    }

    #[test]
    fn eviction_is_ingest_schedule_independent() {
        // Same events, different pump schedules: once everything below
        // the watermark is folded, retained/folded/capture views agree.
        let run = |pumps: &[(u64, f64)]| {
            let bus = EventBus::recording();
            let rec = Recorder::shadow(cfg(1.0, 8));
            let mut emitted = 0;
            for &(upto, now) in pumps {
                fill_range(&bus, emitted, upto);
                emitted = upto;
                rec.pump(&bus, now, now - 0.2);
            }
            rec.settle(&bus);
            let c = rec.capture(0, 0.0, 1e9).unwrap();
            (c.to_jsonl(), rec.summary())
        };
        fn fill_range(bus: &EventBus, from: u64, to: u64) {
            for i in from..to {
                bus.event("lane", "k", SimTime::from_secs_f64(i as f64 * 0.1))
                    .unwrap()
                    .commit();
            }
        }
        let (a_jsonl, a_sum) = run(&[(10, 1.0), (40, 4.0), (60, 6.0)]);
        let (b_jsonl, b_sum) = run(&[(25, 2.5), (60, 6.0)]);
        assert_eq!(a_jsonl, b_jsonl, "capture depends on pump schedule");
        assert_eq!(a_sum.retained, b_sum.retained);
        assert_eq!(a_sum.folded, b_sum.folded);
    }

    #[test]
    fn frozen_windows_survive_eviction_and_capture_exact_events() {
        let bus = EventBus::recording();
        let rec = Recorder::bounded(cfg(0.5, 10_000));
        fill(&bus, 50); // t in [0, 4.95]
        rec.pump(&bus, 2.0, 2.0); // folds t < 1.5
        rec.freeze(1.6, 2.4);
        fill_more(&bus);
        fn fill_more(bus: &EventBus) {
            for i in 50..100 {
                bus.span(
                    "node0-cpu-c0",
                    "cpu-task",
                    SimTime::from_secs_f64(i as f64 * 0.1),
                    SimTime::from_secs_f64(i as f64 * 0.1 + 0.05),
                )
                .unwrap()
                .commit();
            }
        }
        rec.pump(&bus, 10.0, 10.0); // would fold t < 9.5 — except the freeze
        let c = rec.capture(3, 1.6, 2.4).unwrap();
        assert!(
            c.events.iter().all(|e| e.t + e.dur.unwrap_or(0.0) >= 1.6 && e.t <= 2.4),
            "capture is window-scoped"
        );
        assert!(!c.events.is_empty(), "frozen events survived the later pump");
        assert_eq!(c.incident, 3);
        assert_eq!(c.file_name(), "capture-3.jsonl");
        let jsonl = c.to_jsonl();
        let meta = jsonl.lines().next().unwrap();
        assert!(meta.contains(&format!("\"schema\":\"{CAPTURE_SCHEMA}\"")));
        assert!(meta.contains("\"incident\":3"));
        // Pre-window history appears as fold lines, not silence.
        assert!(c.folds.iter().any(|f| f.count > 0));
        assert!(jsonl.contains("\"fold\":"));
    }

    #[test]
    fn summary_metrics_register_all_three_families() {
        let bus = EventBus::recording();
        let rec = Recorder::bounded(cfg(0.5, 100));
        fill(&bus, 60);
        rec.pump(&bus, 6.0, 6.0);
        let m = MetricsRegistry::recording();
        rec.register_metrics(&m);
        assert!(m.gauge("prs_recorder_events_retained", &[]).unwrap() > 0.0);
        assert!(m.gauge("prs_recorder_events_folded", &[]).unwrap() > 0.0);
        assert!(m.gauge("prs_recorder_bytes", &[]).unwrap() > 0.0);
        let s = rec.summary();
        let v = s.to_value().to_json_string();
        assert!(v.contains("\"retained\":"));
        assert!(v.contains("\"budget\":100"));
    }
}
