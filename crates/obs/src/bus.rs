//! The structured event bus: spans and point events carrying virtual
//! timestamps, keyed by iteration / partition / block / device lane.
//!
//! Hot paths (CPU pollers, GPU stream workers, the comm layer) emit one
//! event per task or transfer, so recording must be cheap: an event is a
//! fixed-size record appended to the bus's [`EventLog`] arena under a
//! single `parking_lot` mutex, taken only when the bus is enabled. Lane
//! and kind strings are interned to ids (one allocation per *distinct*
//! name, not per event), and so are the `&'static str` attribute keys.
//! No event is a heap object of its own: readers — the flight recorder,
//! the rollup and watchdog views, the exporters — read the records in
//! place through [`EventBus::with_events`].

use crate::log::{EventLog, Fields};
use parking_lot::Mutex;
use simtime::SimTime;
use std::io;
use std::sync::Arc;

/// Schema tag on the `events.jsonl` meta line (the first line of a
/// non-empty export). Readers skip any line whose object carries a
/// `schema` key.
pub const EVENTS_SCHEMA: &str = "prs-events-v1";

/// One structured event, owned. `dur` distinguishes spans (busy
/// intervals) from point events (a retry firing, a daemon dying). The bus
/// stores events as compact records; this is the form a snapshot
/// ([`EventBus::events`]) or a hand-built stream takes.
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

/// A shared, cheaply clonable event sink. The default value is
/// *disabled*: every emit call returns `None` without locking.
///
/// The log holds the *resident* events. The flight recorder drops a
/// prefix of it via [`EventBus::trim_to`] after ingesting it, so a
/// recorder-mode run holds O(budget) events instead of the full history;
/// cursor positions ([`EventBus::len`], [`EventBus::subscribe`]) are
/// absolute and stay valid across trims.
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Option<Arc<Mutex<EventLog>>>,
}

/// A lane or kind as an emitter hands it over: text the bus looks up, or
/// a handle it has seen before (found by address).
#[derive(Clone, Copy)]
enum NameArg<'a> {
    Text(&'a str),
    Shared(&'a Arc<str>),
}

impl NameArg<'_> {
    fn id(self, log: &mut EventLog) -> u32 {
        match self {
            NameArg::Text(s) => log.name_id(s),
            NameArg::Shared(a) => log.name_id_of(a),
        }
    }
}

impl EventBus {
    /// A live bus that records events.
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(EventLog::new()))),
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
    /// intern once up front and pass the `Arc<str>` to [`Self::span_interned`],
    /// which finds it by address. Returns an owned `Arc<str>` even when
    /// the bus is disabled so device setup code can intern unconditionally.
    pub fn intern(&self, name: &str) -> Arc<str> {
        match &self.inner {
            Some(inner) => {
                let mut log = inner.lock();
                let id = log.name_id(name);
                log.name(id).clone()
            }
            None => Arc::from(name),
        }
    }

    fn draft<'a>(
        &'a self,
        lane: NameArg<'a>,
        kind: NameArg<'a>,
        t: SimTime,
        end: Option<SimTime>,
    ) -> Option<EventDraft<'a>> {
        self.inner.as_deref().map(|log| EventDraft {
            log,
            lane,
            kind,
            fields: Fields {
                t: t.as_secs_f64(),
                dur: end.map(|end| end.as_secs_f64() - t.as_secs_f64()),
                iteration: None,
                partition: None,
                block: None,
            },
            attrs: DraftAttrs::default(),
        })
    }

    /// Starts a point event draft at time `t`. Returns `None` when
    /// disabled; call [`EventDraft::commit`] to record.
    pub fn event<'a>(&'a self, lane: &'a str, kind: &'a str, t: SimTime) -> Option<EventDraft<'a>> {
        self.draft(NameArg::Text(lane), NameArg::Text(kind), t, None)
    }

    /// Starts a span draft covering `[start, end]` in virtual seconds.
    pub fn span<'a>(
        &'a self,
        lane: &'a str,
        kind: &'a str,
        start: SimTime,
        end: SimTime,
    ) -> Option<EventDraft<'a>> {
        self.draft(NameArg::Text(lane), NameArg::Text(kind), start, Some(end))
    }

    /// Point-event emit with pre-interned lane and kind — the
    /// counterpart of [`Self::span_interned`] for hot paths that stamp
    /// instants (message departures/arrivals, queue samples).
    pub fn event_interned<'a>(
        &'a self,
        lane: &'a Arc<str>,
        kind: &'a Arc<str>,
        t: SimTime,
    ) -> Option<EventDraft<'a>> {
        self.draft(NameArg::Shared(lane), NameArg::Shared(kind), t, None)
    }

    /// Span emit with pre-interned lane and kind — no string work on the
    /// hot path: the names are found by address when the event commits.
    pub fn span_interned<'a>(
        &'a self,
        lane: &'a Arc<str>,
        kind: &'a Arc<str>,
        start: SimTime,
        end: SimTime,
    ) -> Option<EventDraft<'a>> {
        self.draft(NameArg::Shared(lane), NameArg::Shared(kind), start, Some(end))
    }

    /// Number of events appended so far (0 when disabled). This counts
    /// *all* appends, including any trimmed away by the flight recorder,
    /// so it keeps serving as the absolute cursor space.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |log| log.lock().end())
    }

    /// Number of events currently resident in the log — `len()` minus
    /// whatever [`Self::trim_to`] dropped. This is the quantity the
    /// recorder's O(budget) memory contract bounds.
    pub fn resident_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |log| log.lock().len())
    }

    /// True when no events have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owned copies of all *resident* events, in append order. Equal to
    /// the full history unless [`Self::trim_to`] ran. Each copy is an
    /// allocation; aggregations read in place with [`Self::with_events`].
    pub fn events(&self) -> Vec<Event> {
        self.with_events(|log| log.iter().map(|e| e.to_event()).collect())
    }

    /// Drops resident events with absolute index below `cursor` — the
    /// flight recorder calls this after ingesting a prefix, and the
    /// arena gives the prefix's chunks back. Later subscribers simply see
    /// the trimmed prefix as already consumed; exports ([`Self::to_jsonl`])
    /// cover the resident suffix only, which is why the CLI only trims
    /// when no full `events.jsonl` export was requested.
    pub fn trim_to(&self, cursor: usize) {
        if let Some(log) = &self.inner {
            log.lock().drop_below(cursor);
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

    /// Owned copies of the events appended at or after index `cursor`, in
    /// append order, plus the new cursor position. The append order is
    /// itself deterministic for a deterministic run, so consumers that
    /// canonically re-sort (as the watchdog does) are engine-independent.
    pub fn events_since(&self, cursor: usize) -> (Vec<Event>, usize) {
        self.with_log(|log| {
            let end = log.end();
            let from = cursor.clamp(end - log.len(), end);
            ((from..end).map(|i| log.at(i).to_event()).collect(), end)
        })
        .unwrap_or_default()
    }

    /// Runs `f` over the *resident* events, in append order, reading the
    /// log's records in place (the log stays locked while `f` runs, so
    /// `f` must not emit). Empty when disabled.
    pub fn with_events<R>(&self, f: impl FnOnce(&EventLog) -> R) -> R {
        match &self.inner {
            Some(log) => f(&log.lock()),
            None => f(&EventLog::new()),
        }
    }

    /// Runs `f` on the locked log; `None` when disabled.
    pub(crate) fn with_log<R>(&self, f: impl FnOnce(&mut EventLog) -> R) -> Option<R> {
        self.inner.as_ref().map(|log| f(&mut log.lock()))
    }

    /// Canonical JSONL export, written to `out`: a meta line, then one
    /// JSON object per line, sorted by `(t, rendered bytes)` so two runs
    /// that record the same set of events — in any append order —
    /// produce byte-identical output. Lines are rendered one equal-`t`
    /// group at a time into one reused buffer, so the export holds no
    /// more than its largest group.
    pub fn write_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        self.with_events(|log| log.write_jsonl(out))
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
/// without re-reading the full event log.
///
/// [`poll`]: Subscription::poll
#[derive(Clone)]
pub struct Subscription {
    bus: EventBus,
    cursor: usize,
}

impl Subscription {
    /// Returns owned copies of the events appended since the last poll
    /// (or since [`EventBus::subscribe`]) and advances the cursor past
    /// them.
    pub fn poll(&mut self) -> Vec<Event> {
        let (events, cursor) = self.bus.events_since(self.cursor);
        self.cursor = cursor;
        events
    }

    /// Current cursor position (events consumed so far).
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

/// Attributes a draft holds before it commits: inline up to the most any
/// emitter attaches, so a draft allocates nothing; more spill to the heap
/// rather than being dropped.
#[derive(Default)]
struct DraftAttrs {
    inline: [(&'static str, f64); DraftAttrs::INLINE],
    len: usize,
    spill: Vec<(&'static str, f64)>,
}

impl DraftAttrs {
    const INLINE: usize = 8;

    fn push(&mut self, kv: (&'static str, f64)) {
        if self.len < Self::INLINE {
            self.inline[self.len] = kv;
            self.len += 1;
        } else {
            self.spill.push(kv);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.inline[..self.len].iter().chain(&self.spill).copied()
    }
}

/// Builder for one event: chain the optional keys, then [`commit`].
///
/// [`commit`]: EventDraft::commit
#[must_use = "an uncommitted event draft records nothing"]
pub struct EventDraft<'a> {
    log: &'a Mutex<EventLog>,
    lane: NameArg<'a>,
    kind: NameArg<'a>,
    fields: Fields,
    attrs: DraftAttrs,
}

impl EventDraft<'_> {
    /// Tags the event with an outer iteration index.
    pub fn iteration(mut self, i: usize) -> Self {
        self.fields.iteration = Some(i as u64);
        self
    }

    /// Tags the event with a master partition id.
    pub fn partition(mut self, p: usize) -> Self {
        self.fields.partition = Some(p as u64);
        self
    }

    /// Tags the event with a worker block index.
    pub fn block(mut self, b: usize) -> Self {
        self.fields.block = Some(b as u64);
        self
    }

    /// Attaches a numeric attribute.
    pub fn attr(mut self, key: &'static str, value: f64) -> Self {
        self.attrs.push((key, value));
        self
    }

    /// Records the event on the bus.
    pub fn commit(self) {
        let mut log = self.log.lock();
        let lane = self.lane.id(&mut log);
        let kind = self.kind.id(&mut log);
        log.push(self.fields, lane, kind, self.attrs.iter());
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
        let lane = bus.intern("l");
        bus.event("l", "k", SimTime::ZERO).unwrap().attr("a", 1.0).commit();
        let (since, _) = bus.events_since(0);
        let snapshot = bus.events();
        bus.with_events(|log| {
            let e = log.get(0);
            assert!(Arc::ptr_eq(e.lane_arc(), &lane), "the record names the bus's own lane");
            assert!(Arc::ptr_eq(&since[0].lane, &lane), "a copy shares the name");
            assert!(Arc::ptr_eq(&snapshot[0].kind, e.kind_arc()));
            assert_eq!(e.attr("a"), Some(1.0));
        });
    }

    #[test]
    fn a_draft_keeps_every_attribute_past_its_inline_room() {
        let bus = EventBus::recording();
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"];
        let mut draft = bus.event("l", "k", SimTime::ZERO).unwrap();
        for (i, k) in keys.iter().enumerate() {
            draft = draft.attr(k, i as f64);
        }
        draft.commit();
        let attrs = &bus.events()[0].attrs;
        assert_eq!(attrs.len(), keys.len());
        assert!(attrs.iter().zip(keys).enumerate().all(|(i, (&(k, v), want))| k == want && v == i as f64));
    }

    #[test]
    fn interned_handles_brought_by_emitters_name_one_lane() {
        let bus = EventBus::recording();
        let own: Arc<str> = Arc::from("node0-cpu-c0");
        let kind = bus.intern("cpu-task");
        bus.span_interned(&own, &kind, SimTime::ZERO, SimTime::from_secs(1)).unwrap().commit();
        bus.span("node0-cpu-c0", "cpu-task", SimTime::from_secs(1), SimTime::from_secs(2))
            .unwrap()
            .commit();
        bus.with_events(|log| {
            assert!(Arc::ptr_eq(log.get(0).lane_arc(), log.get(1).lane_arc()));
            assert!(Arc::ptr_eq(log.get(1).lane_arc(), &own), "the first handle seen");
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
