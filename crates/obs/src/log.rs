//! The event log's storage: every event is one fixed-size `Record` in
//! an append-only arena, its attributes a span of a side arena, its
//! names ids into tables the log interns.
//!
//! An observed 128-node run records tens of thousands of events, so the
//! unit of storage decides what the log costs. An event here costs its
//! 56-byte record plus 12 bytes per attribute and no allocation of its
//! own. Both arenas grow a fixed-size chunk at a time, so growth never
//! copies and never leaves 2× slack, and a trimmed prefix gives whole
//! chunks back, where small per-event objects would stay resident in the
//! allocator after they were freed.

use crate::bus::{Event, EVENTS_SCHEMA};
use crate::jsonl::{each_canonical, ObjectWriter};
use crate::rollup::EventView;
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io;
use std::sync::Arc;

/// Records per chunk of the record arena (56 KiB).
const RECORDS_PER_CHUNK: usize = 1024;
/// Attributes per chunk of the attribute arena (48 KiB: keys and values).
const ATTRS_PER_CHUNK: usize = 4096;

/// Append-only storage in chunks of `N` elements, addressed by absolute
/// index. Growth allocates one more chunk of exactly `N` and moves
/// nothing; a prefix is given back a whole chunk at a time. Only the last
/// chunk may hold less than `N`, by capacity too once shrunk (a copy is
/// shrunk): it grows back to `N` in one step when it next fills.
#[derive(Clone)]
struct Chunked<T, const N: usize> {
    chunks: VecDeque<Vec<T>>,
    /// Absolute index of `chunks[0][0]`.
    base: usize,
    /// Absolute index one past the last element.
    end: usize,
}

impl<T, const N: usize> Default for Chunked<T, N> {
    fn default() -> Self {
        Chunked {
            chunks: VecDeque::new(),
            base: 0,
            end: 0,
        }
    }
}

impl<T: Copy, const N: usize> Chunked<T, N> {
    fn push(&mut self, v: T) {
        match self.chunks.back_mut() {
            Some(last) if last.len() < N => {
                if last.len() == last.capacity() {
                    last.reserve_exact(N - last.len());
                }
                last.push(v);
            }
            _ => {
                let mut chunk = Vec::with_capacity(N);
                chunk.push(v);
                self.chunks.push_back(chunk);
            }
        }
        self.end += 1;
    }

    /// Gives back the last chunk's spare capacity.
    fn shrink_to_fit(&mut self) {
        if let Some(last) = self.chunks.back_mut() {
            last.shrink_to_fit();
        }
    }

    fn get(&self, i: usize) -> &T {
        let o = i - self.base;
        &self.chunks[o / N][o % N]
    }

    fn set(&mut self, i: usize, v: T) {
        let o = i - self.base;
        self.chunks[o / N][o % N] = v;
    }

    /// Drops every element at or after `end`, and the chunks left empty.
    fn truncate(&mut self, end: usize) {
        let keep = end.max(self.base) - self.base;
        self.chunks.truncate(keep.div_ceil(N));
        if let Some(last) = self.chunks.back_mut() {
            last.truncate(keep - (keep - 1) / N * N);
        }
        self.end = self.base + keep;
    }

    /// Gives back every chunk that lies wholly below `i`.
    fn drop_below(&mut self, i: usize) {
        while self.base + N <= i.min(self.end) {
            self.chunks.pop_front();
            self.base += N;
        }
        if self.chunks.is_empty() {
            self.base = self.end;
        }
    }

    /// Bytes the chunks hold, spare capacity included.
    fn heap_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<T>())
            .sum()
    }
}

/// One event, as the log stores it.
#[derive(Clone, Copy)]
struct Record {
    t: f64,
    /// Meaningful when [`HAS_DUR`] is set.
    dur: f64,
    iteration: u64,
    partition: u64,
    block: u64,
    /// Ids into the log's name table.
    lane: u32,
    kind: u32,
    /// Absolute index of the first attribute, modulo 2³²: the resident
    /// attributes span fewer than 2³² slots, so the offset from the
    /// arena's base is recovered with a wrapping subtraction however
    /// long a trimmed log runs.
    attrs: u32,
    /// Attribute count in the low bits, presence flags above.
    meta: u32,
}

const HAS_DUR: u32 = 1 << 31;
const HAS_ITERATION: u32 = 1 << 30;
const HAS_PARTITION: u32 = 1 << 29;
const HAS_BLOCK: u32 = 1 << 28;
/// Most attributes one event can carry.
const MAX_ATTRS: usize = (HAS_BLOCK - 1) as usize;

// An event with three attributes stays within 96 bytes, chunk slack
// included, only while a record takes at most 56.
const _: () = assert!(std::mem::size_of::<Record>() <= 56);

/// A hasher for addresses: one multiply, which spreads the aligned
/// pointers of interned names well enough for a table of a few thousand.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Interns names to dense `u32` ids. A handle already seen is found by
/// its address, without reading the text; a new handle by text, so two
/// allocations of one name share one id.
#[derive(Clone)]
struct Interner<S> {
    names: Vec<S>,
    by_text: HashMap<S, u32>,
    by_addr: HashMap<(usize, usize), u32, BuildHasherDefault<AddrHasher>>,
    /// Handles that `by_addr` knows besides `names`' own, held so that
    /// their addresses cannot be reused by another name.
    aliases: Vec<S>,
}

impl<S> Default for Interner<S> {
    fn default() -> Self {
        Interner {
            names: Vec::new(),
            by_text: HashMap::new(),
            by_addr: HashMap::default(),
            aliases: Vec::new(),
        }
    }
}

fn addr(s: &str) -> (usize, usize) {
    (s.as_ptr() as usize, s.len())
}

impl<S: Clone + Eq + Hash + Borrow<str>> Interner<S> {
    fn insert(&mut self, name: S) -> u32 {
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names");
        self.by_addr.insert(addr(name.borrow()), id);
        self.by_text.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    fn id_of_text(&mut self, text: &str, make: impl FnOnce(&str) -> S) -> u32 {
        match self.by_text.get(text) {
            Some(&id) => id,
            None => self.insert(make(text)),
        }
    }

    fn id_of(&mut self, name: &S) -> u32 {
        let at = addr(name.borrow());
        if let Some(&id) = self.by_addr.get(&at) {
            return id;
        }
        match self.by_text.get(name.borrow()) {
            Some(&id) => {
                self.aliases.push(name.clone());
                self.by_addr.insert(at, id);
                id
            }
            None => self.insert(name.clone()),
        }
    }

    fn get(&self, id: u32) -> &S {
        &self.names[id as usize]
    }
}

/// An event log: fixed-size records in a chunked arena, attributes in a
/// chunked side arena, lane/kind names and attribute keys interned per
/// log. Positions count from the first resident event; the bus keeps
/// absolute cursors on top of them.
#[derive(Clone, Default)]
pub struct EventLog {
    records: Chunked<Record, RECORDS_PER_CHUNK>,
    attr_keys: Chunked<u32, ATTRS_PER_CHUNK>,
    attr_values: Chunked<f64, ATTRS_PER_CHUNK>,
    /// Absolute index of the first resident event (at or past
    /// `records.base`, which only moves a chunk at a time).
    first: usize,
    names: Interner<Arc<str>>,
    keys: Interner<&'static str>,
}

/// What [`EventLog::push`] stores: everything but the names, which it
/// interns.
pub(crate) struct Fields {
    pub t: f64,
    pub dur: Option<f64>,
    pub iteration: Option<u64>,
    pub partition: Option<u64>,
    pub block: Option<u64>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident events.
    pub fn len(&self) -> usize {
        self.records.end - self.first
    }

    /// Whether no event is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The event at `pos`, counted from the first resident one.
    pub fn get(&self, pos: usize) -> EventRef<'_> {
        assert!(pos < self.len(), "event {pos} of {}", self.len());
        self.at(self.first + pos)
    }

    /// The resident events, oldest first.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            log: self,
            at: self.first..self.records.end,
        }
    }

    /// Bytes the record and attribute arenas hold, spare capacity
    /// included. The name tables add one entry per distinct name.
    pub fn heap_bytes(&self) -> usize {
        self.records.heap_bytes() + self.attr_keys.heap_bytes() + self.attr_values.heap_bytes()
    }

    /// Gives back the spare capacity of both arenas' last chunks: for a
    /// log that is done growing, such as a capture's.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
        self.attr_keys.shrink_to_fit();
        self.attr_values.shrink_to_fit();
    }

    /// Appends an owned event, interning its names.
    pub fn push_event(&mut self, e: &Event) {
        let lane = self.names.id_of(&e.lane);
        let kind = self.names.id_of(&e.kind);
        let fields = Fields {
            t: e.t,
            dur: e.dur,
            iteration: e.iteration,
            partition: e.partition,
            block: e.block,
        };
        self.push(fields, lane, kind, e.attrs.iter().copied());
    }

    /// Appends a copy of `e`, which may belong to another log.
    pub(crate) fn copy(&mut self, e: EventRef<'_>) {
        let lane = self.names.id_of(e.lane_arc());
        let kind = self.names.id_of(e.kind_arc());
        let fields = Fields {
            t: e.t(),
            dur: e.dur(),
            iteration: e.iteration(),
            partition: e.partition(),
            block: e.block(),
        };
        self.push(fields, lane, kind, e.attrs());
    }

    /// The id of `name`, interned by text.
    pub(crate) fn name_id(&mut self, name: &str) -> u32 {
        self.names.id_of_text(name, |s| Arc::from(s))
    }

    /// The id of `name`, interned by handle.
    pub(crate) fn name_id_of(&mut self, name: &Arc<str>) -> u32 {
        self.names.id_of(name)
    }

    /// The interned handle of id `id`.
    pub(crate) fn name(&self, id: u32) -> &Arc<str> {
        self.names.get(id)
    }

    /// Appends one event; `lane` and `kind` are ids from this log.
    pub(crate) fn push(
        &mut self,
        f: Fields,
        lane: u32,
        kind: u32,
        attrs: impl IntoIterator<Item = (&'static str, f64)>,
    ) {
        let start = self.attr_keys.end;
        for (k, v) in attrs {
            let key = self.keys.id_of(&k);
            self.attr_keys.push(key);
            self.attr_values.push(v);
        }
        let n = self.attr_keys.end - start;
        assert!(
            n <= MAX_ATTRS,
            "an event carries at most {MAX_ATTRS} attributes, not {n}"
        );
        assert!(
            self.attr_keys.end - self.attr_keys.base < u32::MAX as usize,
            "fewer than 2^32 resident attributes"
        );
        let mut meta = n as u32;
        let mut tag = |v: Option<u64>, flag: u32| {
            meta |= if v.is_some() { flag } else { 0 };
            v.unwrap_or(0)
        };
        let dur = tag(f.dur.map(f64::to_bits), HAS_DUR);
        let iteration = tag(f.iteration, HAS_ITERATION);
        let partition = tag(f.partition, HAS_PARTITION);
        let block = tag(f.block, HAS_BLOCK);
        self.records.push(Record {
            t: f.t,
            dur: f64::from_bits(dur),
            iteration,
            partition,
            block,
            lane,
            kind,
            attrs: start as u32,
            meta,
        });
    }

    /// The resident events as `events.jsonl`: a meta line carrying the
    /// count, then one line per event in canonical order (see
    /// `jsonl::each_canonical`). An empty log writes nothing.
    pub fn write_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let mut meta = String::new();
        let mut o = ObjectWriter::begin(&mut meta);
        o.num("events", self.len() as f64);
        o.str("schema", EVENTS_SCHEMA);
        o.end();
        meta.push('\n');
        out.write_all(meta.as_bytes())?;
        self.write_lines(out)
    }

    /// The resident events' lines alone, newline-terminated, in canonical
    /// order.
    pub fn write_lines(&self, out: &mut dyn io::Write) -> io::Result<()> {
        each_canonical(
            self.len(),
            |p| self.at(self.first + p),
            |_, line| {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")
            },
        )
    }

    /// Absolute index one past the newest event.
    pub(crate) fn end(&self) -> usize {
        self.records.end
    }

    /// The event at absolute index `i`.
    pub(crate) fn at(&self, i: usize) -> EventRef<'_> {
        EventRef {
            log: self,
            rec: self.records.get(i),
        }
    }

    /// Absolute index of `rec`'s first attribute.
    fn attr_start(&self, rec: &Record) -> usize {
        self.attr_keys.base + rec.attrs.wrapping_sub(self.attr_keys.base as u32) as usize
    }

    /// Drops the events below absolute index `i` (never past the end):
    /// what they alone occupied goes back a chunk at a time.
    pub(crate) fn drop_below(&mut self, i: usize) {
        self.first = self.first.max(i.min(self.records.end));
        let attrs_from = if self.first < self.records.end {
            self.attr_start(self.records.get(self.first))
        } else {
            self.attr_keys.end
        };
        self.records.drop_below(self.first);
        self.attr_keys.drop_below(attrs_from);
        self.attr_values.drop_below(attrs_from);
    }

    /// Keeps only the events at the ascending absolute indices `keep`,
    /// moving them down in place to `first..first + keep.len()` and giving
    /// back the chunks freed at the end.
    pub(crate) fn retain_only(&mut self, keep: &[usize]) {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        let mut to = self.first;
        let mut attrs_to = if self.first < self.records.end {
            self.attr_start(self.records.get(self.first))
        } else {
            self.attr_keys.end
        };
        for &i in keep {
            let mut rec = *self.records.get(i);
            let from = self.attr_start(&rec);
            let n = (rec.meta & MAX_ATTRS as u32) as usize;
            for k in 0..n {
                let key = *self.attr_keys.get(from + k);
                let value = *self.attr_values.get(from + k);
                self.attr_keys.set(attrs_to + k, key);
                self.attr_values.set(attrs_to + k, value);
            }
            rec.attrs = attrs_to as u32;
            self.records.set(to, rec);
            to += 1;
            attrs_to += n;
        }
        self.records.truncate(to);
        self.attr_keys.truncate(attrs_to);
        self.attr_values.truncate(attrs_to);
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The resident events of an [`EventLog`], oldest first.
#[derive(Clone)]
pub struct Iter<'a> {
    log: &'a EventLog,
    at: std::ops::Range<usize>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = EventRef<'a>;
    fn next(&mut self) -> Option<EventRef<'a>> {
        self.at.next().map(|i| self.log.at(i))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a EventLog {
    type Item = EventRef<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// One event of an [`EventLog`], read in place: its record plus the
/// log's tables.
#[derive(Clone, Copy)]
pub struct EventRef<'a> {
    log: &'a EventLog,
    rec: &'a Record,
}

impl<'a> EventRef<'a> {
    /// Start time, virtual seconds.
    pub fn t(&self) -> f64 {
        self.rec.t
    }

    /// Span duration; `None` for point events.
    pub fn dur(&self) -> Option<f64> {
        (self.rec.meta & HAS_DUR != 0).then_some(self.rec.dur)
    }

    /// Lane name.
    pub fn lane(&self) -> &'a str {
        self.lane_arc()
    }

    /// Event kind.
    pub fn kind(&self) -> &'a str {
        self.kind_arc()
    }

    /// The log's shared handle on the lane name.
    pub fn lane_arc(&self) -> &'a Arc<str> {
        self.log.names.get(self.rec.lane)
    }

    /// The log's shared handle on the kind name.
    pub fn kind_arc(&self) -> &'a Arc<str> {
        self.log.names.get(self.rec.kind)
    }

    /// Outer iteration tag.
    pub fn iteration(&self) -> Option<u64> {
        (self.rec.meta & HAS_ITERATION != 0).then_some(self.rec.iteration)
    }

    /// Master partition tag.
    pub fn partition(&self) -> Option<u64> {
        (self.rec.meta & HAS_PARTITION != 0).then_some(self.rec.partition)
    }

    /// Worker block tag.
    pub fn block(&self) -> Option<u64> {
        (self.rec.meta & HAS_BLOCK != 0).then_some(self.rec.block)
    }

    /// Number of attributes, repeats included.
    pub fn attr_count(&self) -> usize {
        (self.rec.meta & MAX_ATTRS as u32) as usize
    }

    /// The attributes in the order they were attached, repeats included.
    pub fn attrs(&self) -> impl ExactSizeIterator<Item = (&'static str, f64)> + Clone + 'a {
        let log = self.log;
        let start = log.attr_start(self.rec);
        (start..start + self.attr_count()).map(move |i| {
            (
                *log.keys.get(*log.attr_keys.get(i)),
                *log.attr_values.get(i),
            )
        })
    }

    /// The attribute named `key`; a repeated key reads as its last value.
    pub fn attr(&self, key: &str) -> Option<f64> {
        let mut found = None;
        for (k, v) in self.attrs() {
            if k == key {
                found = Some(v);
            }
        }
        found
    }

    /// An owned copy.
    pub fn to_event(&self) -> Event {
        Event {
            t: self.t(),
            dur: self.dur(),
            lane: self.lane_arc().clone(),
            kind: self.kind_arc().clone(),
            iteration: self.iteration(),
            partition: self.partition(),
            block: self.block(),
            attrs: self.attrs().collect(),
        }
    }
}

impl std::fmt::Debug for EventRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.to_event(), f)
    }
}

/// A log's record reads like any other event. Attributes read as the
/// event's `events.jsonl` line lists them — ascending key order, the last
/// value of a repeated key — so a bus and its export look the same to
/// every consumer.
impl EventView for EventRef<'_> {
    fn t(&self) -> f64 {
        EventRef::t(self)
    }
    fn dur(&self) -> Option<f64> {
        EventRef::dur(self)
    }
    fn lane(&self) -> &str {
        EventRef::lane(self)
    }
    fn kind(&self) -> &str {
        EventRef::kind(self)
    }
    fn iter(&self) -> Option<u64> {
        self.iteration()
    }
    fn attr(&self, key: &str) -> Option<f64> {
        EventRef::attr(self, key)
    }
    fn each_attr(&self, f: &mut dyn FnMut(&str, f64)) {
        crate::jsonl::each_attr_sorted(self.attrs(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t: f64, lane: &str, attrs: &[(&'static str, f64)]) -> Event {
        Event {
            t,
            dur: (t > 1.0).then_some(t / 2.0),
            lane: Arc::from(lane),
            kind: Arc::from("k"),
            iteration: Some(t as u64),
            partition: None,
            block: (t > 2.0).then_some(u64::MAX),
            attrs: attrs.to_vec(),
        }
    }

    fn owned(log: &EventLog) -> Vec<String> {
        log.iter().map(|e| format!("{e:?}")).collect()
    }

    #[test]
    fn records_round_trip_every_field() {
        let mut log = EventLog::new();
        let events: Vec<Event> = (0..3000)
            .map(|i| {
                let attrs: &[(&'static str, f64)] = match i % 3 {
                    0 => &[],
                    1 => &[("bytes", 1.0), ("flops", -0.0)],
                    _ => &[("k", 1.0), ("k", 2.0), ("a", f64::MIN_POSITIVE)],
                };
                event(i as f64 * 0.01, &format!("lane{}", i % 7), attrs)
            })
            .collect();
        for e in &events {
            log.push_event(e);
        }
        assert_eq!(log.len(), events.len());
        for (got, want) in log.iter().zip(&events) {
            assert_eq!(format!("{:?}", got.to_event()), format!("{want:?}"));
        }
        let last = log.get(2);
        assert_eq!(
            last.attr("k"),
            Some(2.0),
            "a repeated key reads its last value"
        );
        assert_eq!(last.attr("missing"), None);
    }

    #[test]
    fn an_event_keeps_every_one_of_its_attributes() {
        let keys: Vec<&'static str> = (0..300)
            .map(|i| &*Box::leak(format!("k{i}").into_boxed_str()))
            .collect();
        let attrs: Vec<(&'static str, f64)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as f64))
            .collect();
        let mut log = EventLog::new();
        // Start the big event just short of a chunk boundary.
        for _ in 0..ATTRS_PER_CHUNK - 7 {
            log.push_event(&event(0.0, "l", &[("x", 0.0)]));
        }
        log.push_event(&event(1.0, "l", &attrs));
        let e = log.get(log.len() - 1);
        assert_eq!(e.attr_count(), 300);
        assert!(e.attrs().eq(attrs.iter().copied()));
    }

    #[test]
    fn trimming_gives_whole_chunks_back_and_keeps_the_rest_readable() {
        let mut log = EventLog::new();
        for i in 0..5000 {
            log.push_event(&event(i as f64, "l", &[("a", i as f64), ("b", 0.5)]));
        }
        let before = log.heap_bytes();
        log.drop_below(4000);
        assert_eq!(log.len(), 1000);
        assert!(
            log.heap_bytes() < before / 2,
            "{} of {before}",
            log.heap_bytes()
        );
        assert!(log
            .iter()
            .enumerate()
            .all(|(i, e)| e.attr("a") == Some((4000 + i) as f64)));
        log.drop_below(10_000);
        assert!(log.is_empty());
        log.push_event(&event(9.0, "l", &[("a", 9.0)]));
        assert_eq!(log.get(0).attr("a"), Some(9.0));
    }

    #[test]
    fn retaining_a_subset_compacts_in_place() {
        let mut log = EventLog::new();
        for i in 0..3000 {
            let attrs: &[(&'static str, f64)] = if i % 2 == 0 { &[("a", 1.0)] } else { &[] };
            log.push_event(&event(i as f64, &format!("l{}", i % 3), attrs));
        }
        log.drop_below(10);
        let keep: Vec<usize> = (10..3000).filter(|i| i % 5 == 0).collect();
        let want: Vec<String> = keep.iter().map(|&i| format!("{:?}", log.at(i))).collect();
        let before = log.heap_bytes();
        log.retain_only(&keep);
        assert_eq!(owned(&log), want);
        assert!(log.heap_bytes() < before);
        let mut copy = log.clone();
        copy.shrink_to_fit();
        assert_eq!(owned(&copy), want);
        assert!(copy.heap_bytes() < log.heap_bytes());
        log.push_event(&event(1.0, "l0", &[("z", 3.0)]));
        assert_eq!(log.get(log.len() - 1).attr("z"), Some(3.0));
        log.retain_only(&[]);
        assert!(log.is_empty());
    }

    #[test]
    fn a_shrunk_log_holds_exactly_its_events_and_grows_back_to_whole_chunks() {
        let record = std::mem::size_of::<Record>();
        let mut log = EventLog::new();
        for i in 0..3 {
            log.push_event(&event(i as f64, "l", &[("a", 1.0), ("b", 2.0)]));
        }
        log.shrink_to_fit();
        assert_eq!(log.heap_bytes(), 3 * record + 6 * 12);
        for i in 0..2000 {
            log.push_event(&event(i as f64, "l", &[("a", i as f64)]));
        }
        assert!(log
            .iter()
            .skip(3)
            .enumerate()
            .all(|(i, e)| e.attr("a") == Some(i as f64)));
        assert_eq!(
            log.heap_bytes(),
            2 * RECORDS_PER_CHUNK * record + ATTRS_PER_CHUNK * 12
        );
    }

    #[test]
    fn one_name_is_one_id_whichever_handle_brings_it() {
        let mut log = EventLog::new();
        let a: Arc<str> = Arc::from("node0-cpu-c0");
        let b: Arc<str> = Arc::from("node0-cpu-c0");
        let id = log.name_id_of(&a);
        assert_eq!(log.name_id_of(&b), id);
        assert_eq!(log.name_id("node0-cpu-c0"), id);
        assert!(
            Arc::ptr_eq(log.name(id), &a),
            "the first handle seen is the log's"
        );
    }

    #[test]
    fn a_typical_event_costs_at_most_96_bytes() {
        let mut log = EventLog::new();
        let n = 41_135;
        for i in 0..n {
            let attrs: &[(&'static str, f64)] = &[("bytes", 1.0), ("flops", 2.0), ("wait_s", 3.0)];
            log.push_event(&event(
                i as f64,
                &format!("node{}-cpu-c{}", i % 128, i % 4),
                attrs,
            ));
        }
        let per_event = log.heap_bytes() as f64 / n as f64;
        assert!(per_event <= 96.0, "{per_event:.1} B per event");
    }
}
