//! The structured event bus: spans and point events carrying virtual
//! timestamps, keyed by iteration / partition / block / device lane.
//!
//! Hot paths (CPU pollers, GPU stream workers, the comm layer) emit one
//! event per task or transfer, so recording must be cheap: lane and kind
//! strings are interned to `Arc<str>` (one allocation per *distinct*
//! name, not per event) and the event vector sits behind a single
//! `parking_lot` mutex taken only when the bus is enabled.
//!
//! Each committed event is one shared allocation (`Arc<Event>`): every
//! reader — the flight recorder, subscriptions, the rollup and watchdog
//! views — holds a pointer to the bus's record, never a copy of it.

use crate::jsonl::{CanonicalLines, ObjectWriter};
use parking_lot::Mutex;
use simtime::SimTime;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

/// Schema tag on the `events.jsonl` meta line (the first line of a
/// non-empty export). Readers skip any line whose object carries a
/// `schema` key.
pub const EVENTS_SCHEMA: &str = "prs-events-v1";

/// One structured event. `dur` distinguishes spans (busy intervals)
/// from point events (a retry firing, a daemon dying).
#[derive(Clone, Debug)]
pub struct Event {
    /// Start time, virtual seconds.
    pub t: f64,
    /// Span duration in virtual seconds; `None` for point events.
    pub dur: Option<f64>,
    /// Device/engine lane (e.g. `node0-gpu0-compute`) or logical lane
    /// (e.g. `node1-sched`, `master`).
    pub lane: Arc<str>,
    /// Event kind (`kernel`, `h2d`, `cpu-task`, `assign`, `retry`, ...).
    pub kind: Arc<str>,
    /// Outer iteration index, if the event belongs to one.
    pub iteration: Option<u64>,
    /// Master-level partition id, if any.
    pub partition: Option<u64>,
    /// Worker-level block index, if any.
    pub block: Option<u64>,
    /// Free-form numeric attributes (flops, bytes, wait seconds, ...).
    pub attrs: Vec<(&'static str, f64)>,
}

/// The event log behind one bus: a vector of the *resident* events plus
/// the absolute index of its first entry. `base` stays 0 for ordinary
/// recording; the flight recorder advances it via [`EventBus::trim_to`]
/// after ingesting a prefix, so a recorder-mode run holds O(budget)
/// events instead of the full history. Cursor positions handed out by
/// [`EventBus::subscribe`] are absolute and stay valid across trims.
struct Log {
    events: Vec<Arc<Event>>,
    base: usize,
}

struct BusInner {
    log: Mutex<Log>,
    interned: Mutex<BTreeMap<String, Arc<str>>>,
}

/// A shared, cheaply clonable event sink. The default value is
/// *disabled*: every emit call returns `None` without locking.
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Option<Arc<BusInner>>,
}

impl EventBus {
    /// A live bus that records events.
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(BusInner {
                log: Mutex::new(Log {
                    events: Vec::new(),
                    base: 0,
                }),
                interned: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A disabled bus (same as `EventBus::default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether emits will actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Interns a lane/kind name: one allocation the first time a name
    /// is seen, `Arc` clones afterwards. Callers on hot paths should
    /// intern once up front and pass the `Arc<str>` to [`Self::span_interned`].
    /// Returns an owned `Arc<str>` even when the bus is disabled so
    /// device setup code can intern unconditionally.
    pub fn intern(&self, name: &str) -> Arc<str> {
        match &self.inner {
            Some(inner) => {
                let mut table = inner.interned.lock();
                if let Some(a) = table.get(name) {
                    return a.clone();
                }
                let a: Arc<str> = Arc::from(name);
                table.insert(name.to_string(), a.clone());
                a
            }
            None => Arc::from(name),
        }
    }

    /// Starts a point event draft at time `t`. Returns `None` when
    /// disabled; call [`EventDraft::commit`] to record.
    pub fn event(&self, lane: &str, kind: &str, t: SimTime) -> Option<EventDraft<'_>> {
        self.inner.as_ref().map(|inner| EventDraft {
            inner,
            ev: Event {
                t: t.as_secs_f64(),
                dur: None,
                lane: self.intern(lane),
                kind: self.intern(kind),
                iteration: None,
                partition: None,
                block: None,
                attrs: Vec::new(),
            },
        })
    }

    /// Starts a span draft covering `[start, end]` in virtual seconds.
    pub fn span(&self, lane: &str, kind: &str, start: SimTime, end: SimTime) -> Option<EventDraft<'_>> {
        self.event(lane, kind, start).map(|d| {
            let mut d = d;
            d.ev.dur = Some(end.as_secs_f64() - start.as_secs_f64());
            d
        })
    }

    /// Point-event emit with pre-interned lane and kind — the
    /// counterpart of [`Self::span_interned`] for hot paths that stamp
    /// instants (message departures/arrivals, queue samples).
    pub fn event_interned(
        &self,
        lane: &Arc<str>,
        kind: &Arc<str>,
        t: SimTime,
    ) -> Option<EventDraft<'_>> {
        self.inner.as_ref().map(|inner| EventDraft {
            inner,
            ev: Event {
                t: t.as_secs_f64(),
                dur: None,
                lane: lane.clone(),
                kind: kind.clone(),
                iteration: None,
                partition: None,
                block: None,
                attrs: Vec::new(),
            },
        })
    }

    /// Span emit with pre-interned lane and kind — zero string work on
    /// the hot path beyond two `Arc` clones.
    pub fn span_interned(
        &self,
        lane: &Arc<str>,
        kind: &Arc<str>,
        start: SimTime,
        end: SimTime,
    ) -> Option<EventDraft<'_>> {
        self.inner.as_ref().map(|inner| EventDraft {
            inner,
            ev: Event {
                t: start.as_secs_f64(),
                dur: Some(end.as_secs_f64() - start.as_secs_f64()),
                lane: lane.clone(),
                kind: kind.clone(),
                iteration: None,
                partition: None,
                block: None,
                attrs: Vec::new(),
            },
        })
    }

    /// Number of events appended so far (0 when disabled). This counts
    /// *all* appends, including any trimmed away by the flight recorder,
    /// so it keeps serving as the absolute cursor space.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            let log = i.log.lock();
            log.base + log.events.len()
        })
    }

    /// Number of events currently resident in the log — `len()` minus
    /// whatever [`Self::trim_to`] dropped. This is the quantity the
    /// recorder's O(budget) memory contract bounds.
    pub fn resident_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.log.lock().events.len())
    }

    /// True when no events have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all *resident* events, in append order. Equal to the
    /// full history unless [`Self::trim_to`] ran. The events themselves
    /// are shared with the bus, not copied.
    pub fn events(&self) -> Vec<Arc<Event>> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.log.lock().events.clone())
    }

    /// Drops resident events with absolute index below `cursor` — the
    /// flight recorder calls this after ingesting a prefix, so the
    /// recorder's pointer becomes the event's only owner. Later
    /// subscribers simply see the trimmed prefix as already consumed;
    /// exports ([`Self::to_jsonl`]) cover the resident suffix only, which
    /// is why the CLI only trims when no full `events.jsonl` export was
    /// requested.
    pub fn trim_to(&self, cursor: usize) {
        if let Some(inner) = &self.inner {
            let mut log = inner.log.lock();
            let upto = cursor.min(log.base + log.events.len());
            if upto > log.base {
                let n = upto - log.base;
                log.events.drain(..n);
                log.base = upto;
            }
        }
    }

    /// Opens a streaming cursor over the bus, positioned at the current
    /// tail: the first [`Subscription::poll`] returns only events
    /// appended after this call. Subscribing to a disabled bus yields an
    /// empty subscription that never returns events.
    pub fn subscribe(&self) -> Subscription {
        Subscription {
            bus: self.clone(),
            cursor: self.len(),
        }
    }

    /// The events appended at or after index `cursor`, in append order
    /// and shared with the bus, plus the new cursor position. The append
    /// order is itself deterministic for a deterministic run, so consumers
    /// that canonically re-sort (as the watchdog does) are
    /// engine-independent.
    pub fn events_since(&self, cursor: usize) -> (Vec<Arc<Event>>, usize) {
        match &self.inner {
            Some(inner) => {
                let log = inner.log.lock();
                let end = log.base + log.events.len();
                let start = cursor.clamp(log.base, end) - log.base;
                (log.events[start..].to_vec(), end)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Runs `f` over the *resident* events, in append order, without
    /// copying them (the log stays locked while `f` runs, so `f` must
    /// not emit). Empty when disabled.
    pub fn with_events<R>(&self, f: impl FnOnce(&[Arc<Event>]) -> R) -> R {
        match &self.inner {
            Some(inner) => f(&inner.log.lock().events),
            None => f(&[]),
        }
    }

    /// Canonical JSONL export, written to `out`: a meta line, then one
    /// JSON object per line, sorted by `(t, rendered bytes)` so two runs
    /// that record the same set of events — in any append order —
    /// produce byte-identical output. The lines go out straight from
    /// their one rendering buffer; nothing else holds the export.
    pub fn write_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        let lines =
            self.with_events(|events| CanonicalLines::render(events.iter().map(Arc::as_ref)));
        if !lines.is_empty() {
            let mut meta = String::new();
            let mut o = ObjectWriter::begin(&mut meta);
            o.num("events", lines.len() as f64);
            o.str("schema", EVENTS_SCHEMA);
            o.end();
            meta.push('\n');
            out.write_all(meta.as_bytes())?;
        }
        lines.write_to(out)
    }

    /// [`Self::write_jsonl`] into a string.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("event lines are UTF-8")
    }
}

/// A streaming cursor over an [`EventBus`]: each [`poll`] drains the
/// events appended since the previous poll. Used by online consumers
/// (the health watchdog) that want to observe a run incrementally
/// without re-reading the full event vector.
///
/// [`poll`]: Subscription::poll
#[derive(Clone)]
pub struct Subscription {
    bus: EventBus,
    cursor: usize,
}

impl Subscription {
    /// Returns the events appended since the last poll (or since
    /// [`EventBus::subscribe`]) and advances the cursor past them.
    pub fn poll(&mut self) -> Vec<Arc<Event>> {
        let (events, cursor) = self.bus.events_since(self.cursor);
        self.cursor = cursor;
        events
    }

    /// Current cursor position (events consumed so far).
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

/// Builder for one event: chain the optional keys, then [`commit`].
///
/// [`commit`]: EventDraft::commit
#[must_use = "an uncommitted event draft records nothing"]
pub struct EventDraft<'a> {
    inner: &'a BusInner,
    ev: Event,
}

impl EventDraft<'_> {
    /// Tags the event with an outer iteration index.
    pub fn iteration(mut self, i: usize) -> Self {
        self.ev.iteration = Some(i as u64);
        self
    }

    /// Tags the event with a master partition id.
    pub fn partition(mut self, p: usize) -> Self {
        self.ev.partition = Some(p as u64);
        self
    }

    /// Tags the event with a worker block index.
    pub fn block(mut self, b: usize) -> Self {
        self.ev.block = Some(b as u64);
        self
    }

    /// Attaches a numeric attribute.
    pub fn attr(mut self, key: &'static str, value: f64) -> Self {
        self.ev.attrs.push((key, value));
        self
    }

    /// Records the event on the bus.
    pub fn commit(self) {
        self.inner.log.lock().events.push(Arc::new(self.ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bus_emits_nothing() {
        let bus = EventBus::disabled();
        assert!(bus.event("l", "k", SimTime::ZERO).is_none());
        assert!(bus.is_empty());
        assert_eq!(bus.to_jsonl(), "");
    }

    #[test]
    fn interning_reuses_allocations() {
        let bus = EventBus::recording();
        let a = bus.intern("node0-gpu0-compute");
        let b = bus.intern("node0-gpu0-compute");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn span_and_tags_round_trip_through_json() {
        let bus = EventBus::recording();
        bus.span("node0-cpu-c0", "cpu-task", SimTime::from_secs(1), SimTime::from_secs(3))
            .unwrap()
            .iteration(2)
            .block(7)
            .attr("flops", 1e9)
            .commit();
        let jsonl = bus.to_jsonl();
        let mut lines = jsonl.lines();
        let meta = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(meta["schema"].as_str(), Some(EVENTS_SCHEMA));
        assert_eq!(meta["events"].as_u64(), Some(1));
        let doc = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(doc["t"].as_f64(), Some(1.0));
        assert_eq!(doc["dur"].as_f64(), Some(2.0));
        assert_eq!(doc["lane"].as_str(), Some("node0-cpu-c0"));
        assert_eq!(doc["iter"].as_u64(), Some(2));
        assert_eq!(doc["block"].as_u64(), Some(7));
        assert_eq!(doc["attrs"]["flops"].as_f64(), Some(1e9));
    }

    #[test]
    fn subscription_drains_incrementally() {
        let bus = EventBus::recording();
        bus.event("l", "before", SimTime::ZERO).unwrap().commit();
        let mut sub = bus.subscribe();
        assert!(sub.poll().is_empty(), "starts at the tail");
        bus.event("l", "first", SimTime::from_secs(1)).unwrap().commit();
        bus.event("l", "second", SimTime::from_secs(2)).unwrap().commit();
        let batch = sub.poll();
        assert_eq!(batch.len(), 2);
        assert_eq!(&*batch[0].kind, "first");
        assert!(sub.poll().is_empty(), "cursor advanced past the batch");
        bus.event("l", "third", SimTime::from_secs(3)).unwrap().commit();
        assert_eq!(sub.poll().len(), 1);
        assert_eq!(sub.cursor(), 4);
    }

    #[test]
    fn subscription_on_disabled_bus_is_inert() {
        let bus = EventBus::disabled();
        let mut sub = bus.subscribe();
        assert!(sub.poll().is_empty());
        assert_eq!(sub.cursor(), 0);
    }

    #[test]
    fn trimming_preserves_absolute_cursors() {
        let bus = EventBus::recording();
        for i in 0..6 {
            bus.event("l", "k", SimTime::from_secs(i)).unwrap().commit();
        }
        let mut sub = bus.subscribe(); // cursor at 6
        bus.trim_to(4);
        assert_eq!(bus.len(), 6, "len counts trimmed history");
        assert_eq!(bus.resident_len(), 2);
        assert_eq!(bus.events().len(), 2);
        bus.event("l", "k", SimTime::from_secs(9)).unwrap().commit();
        let batch = sub.poll();
        assert_eq!(batch.len(), 1, "subscriber opened at the tail sees only the append");
        assert_eq!(batch[0].t, 9.0);
        // A stale cursor inside the trimmed prefix clamps forward instead
        // of panicking or replaying resident events twice.
        let (evs, cursor) = bus.events_since(1);
        assert_eq!(evs.len(), 3);
        assert_eq!(cursor, 7);
        // Trimming past the tail drops everything resident, no further.
        bus.trim_to(100);
        assert_eq!(bus.resident_len(), 0);
        assert_eq!(bus.len(), 7);
    }

    #[test]
    fn write_jsonl_into_a_vec_equals_to_jsonl() {
        let bus = EventBus::recording();
        let mut empty = Vec::new();
        bus.write_jsonl(&mut empty).unwrap();
        assert!(empty.is_empty(), "an empty bus exports nothing, not even the meta line");
        for (t, kind) in [(2.0, "b"), (1.0, "a"), (1.0, "c")] {
            bus.span("l", kind, SimTime::from_secs_f64(t), SimTime::from_secs_f64(t + 0.5))
                .unwrap()
                .attr("bytes", t)
                .commit();
        }
        let mut out = Vec::new();
        bus.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), bus.to_jsonl());
        assert_eq!(bus.to_jsonl().lines().count(), 4, "meta line plus three events");
    }

    #[test]
    fn readers_share_the_committed_event() {
        let bus = EventBus::recording();
        bus.event("l", "k", SimTime::ZERO).unwrap().commit();
        let (since, _) = bus.events_since(0);
        let snapshot = bus.events();
        bus.with_events(|events| {
            assert!(Arc::ptr_eq(&events[0], &since[0]));
            assert!(Arc::ptr_eq(&events[0], &snapshot[0]));
        });
    }

    #[test]
    fn jsonl_is_canonically_sorted_regardless_of_append_order() {
        let render = |order: &[(f64, &str)]| {
            let bus = EventBus::recording();
            for (t, kind) in order {
                bus.event("l", kind, SimTime::from_secs_f64(*t)).unwrap().commit();
            }
            bus.to_jsonl()
        };
        let fwd = render(&[(1.0, "a"), (1.0, "b"), (2.0, "c")]);
        let rev = render(&[(2.0, "c"), (1.0, "b"), (1.0, "a")]);
        assert_eq!(fwd, rev);
        let mut lines = fwd.lines();
        assert!(lines.next().unwrap().contains("\"schema\""));
        assert!(lines.next().unwrap().contains("\"a\""));
    }
}
