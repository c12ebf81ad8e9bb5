//! The calendar event queue: a priority queue for discrete-event
//! timestamps, replacing the engine's original global `BinaryHeap` on the
//! million-event scaling path.
//!
//! A calendar queue (Brown, CACM 1988) hashes each event into a "day"
//! bucket by `floor(time / width) % buckets`, like appointments written
//! into a wall calendar. Popping sweeps the calendar forward one day at a
//! time, returning the earliest `(time, seq)` entry of the current day;
//! one full lap without a hit falls back to a direct search over every
//! bucket's earliest entry (the "search for the next event in any year"
//! case). The bucket count and width adapt to the live population, so
//! timestamps that are spread out land a handful to a bucket, and a pop
//! scans that handful: amortized O(1).
//!
//! Timestamps that are *not* spread out — an SPMD job's thousand ranks
//! waking at one instant — share a bucket whatever the width, and scanning
//! it on every pop made a superstep of `m` ties cost `m²/2` comparisons.
//! So a bucket that outgrows `Bucket::FEW` entries sorts itself and stays
//! ascending by `(time, seq)` until it is empty again (or the calendar is
//! rebuilt around it): `pop` and `peek` take its front, and `schedule`
//! appends at the back unless the entry is earlier than one already there
//! (the engine's clock never runs backwards and `seq` only grows, so it
//! rarely is), in which case a binary search finds its place. Which of
//! the two a bucket is depends on the length it has reached, nothing else;
//! keeping every bucket ordered instead cost the spread-out traffic a
//! fifth of its throughput.
//!
//! Day numbers are computed once per entry and stored as exact integers,
//! so the sweep compares `u64`s rather than accumulating floating-point
//! bucket boundaries; because `t / width` is monotone in `t`, day order
//! can never contradict time order, which keeps the pop order exact even
//! where the division rounds.
//!
//! Ordering contract (the engine's determinism anchor): entries pop in
//! ascending `(time, seq)` order among the entries present, where `seq`
//! is the caller-supplied scheduling sequence number. Two entries never
//! share a `seq`, so the order is total and independent of insertion
//! interleaving, bucket layout, or resize history.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Largest quotient `time / width` whose floor is exactly representable;
/// entries beyond it live in the overflow list (found by direct search).
const MAX_EXACT_DAY: f64 = 9_007_199_254_740_992.0; // 2^53

/// One queued entry.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    /// `floor(time / width)` at the current width — recomputed on resize.
    day: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (f64, u64) {
        (self.time, self.seq)
    }
}

/// The entries of one calendar day (and of the days that share its slot).
#[derive(Debug)]
enum Bucket<T> {
    /// At most [`Bucket::FEW`] entries in no order; the earliest is found
    /// by scanning. An empty bucket is an empty `Few`.
    Few(Vec<Entry<T>>),
    /// Entries ascending by `(time, seq)`; the earliest is the front.
    Many(VecDeque<Entry<T>>),
}

impl<T> Bucket<T> {
    /// The longest bucket that is scanned rather than kept in order. Well
    /// above what spread-out timestamps reach (a resize aims at 3 to 6 a
    /// day), well below a superstep's ties.
    const FEW: usize = 32;

    fn new() -> Self {
        Bucket::Few(Vec::new())
    }

    /// The earliest entry and its index.
    fn earliest(&self) -> Option<(usize, &Entry<T>)> {
        match self {
            Bucket::Few(v) => {
                examined(v.len());
                let mut best: Option<(usize, &Entry<T>)> = None;
                for (i, e) in v.iter().enumerate() {
                    if best.is_none_or(|(_, b)| e.key() < b.key()) {
                        best = Some((i, e));
                    }
                }
                best
            }
            Bucket::Many(d) => {
                examined(1);
                d.front().map(|e| (0, e))
            }
        }
    }

    fn get(&self, i: usize) -> &Entry<T> {
        match self {
            Bucket::Few(v) => &v[i],
            Bucket::Many(d) => &d[i],
        }
    }

    fn insert(&mut self, e: Entry<T>) {
        examined(1);
        match self {
            Bucket::Few(v) if v.len() < Self::FEW => v.push(e),
            Bucket::Few(v) => {
                v.push(e);
                v.sort_by(|x, y| {
                    examined(1);
                    x.key()
                        .partial_cmp(&y.key())
                        .expect("a SimTime is never NaN")
                });
                *self = Bucket::Many(std::mem::take(v).into());
            }
            Bucket::Many(d) if d.back().is_none_or(|last| last.key() < e.key()) => d.push_back(e),
            Bucket::Many(d) => {
                let at = d.partition_point(|x| x.key() < e.key());
                // The comparisons of the search, and the entries `insert`
                // shifts.
                examined(d.len().ilog2() as usize + 1 + at.min(d.len() - at));
                d.insert(at, e);
            }
        }
    }

    /// Removes the entry at `i`, which must exist.
    fn remove(&mut self, i: usize) -> Entry<T> {
        match self {
            Bucket::Few(v) => v.swap_remove(i),
            Bucket::Many(d) => {
                let e = d.remove(i).expect("the index of a live entry");
                if d.is_empty() {
                    *self = Bucket::new();
                }
                e
            }
        }
    }

    fn position(&self, seq: u64) -> Option<usize> {
        match self {
            Bucket::Few(v) => v.iter().position(|e| e.seq == seq),
            Bucket::Many(d) => d.iter().position(|e| e.seq == seq),
        }
    }

    /// Moves every entry to the back of `out`.
    fn drain_into(&mut self, out: &mut Vec<Entry<T>>) {
        match std::mem::replace(self, Bucket::new()) {
            Bucket::Few(v) => out.extend(v),
            Bucket::Many(d) => out.extend(d),
        }
    }
}

/// Where `locate` found the next entry.
#[derive(Clone, Copy)]
struct Loc {
    /// The bucket; `None` is the overflow list.
    bucket: Option<usize>,
    /// The entry's index in it.
    index: usize,
}

#[cfg(test)]
thread_local! {
    /// Entries this thread's queues compared or moved; see [`examined`].
    static EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts `n` entries compared or moved, in test builds: what the
/// cost-under-ties test bounds.
#[inline(always)]
fn examined(_n: usize) {
    #[cfg(test)]
    EXAMINED.with(|c| c.set(c.get() + _n as u64));
}

/// A calendar queue over `(SimTime, seq)` keys.
///
/// `seq` is supplied by the caller and must be unique per live entry; it
/// breaks ties among equal timestamps deterministically (FIFO in
/// scheduling order when the caller hands out ascending sequence
/// numbers).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Bucket<T>>,
    /// Entries whose day number is not exactly representable.
    overflow: Bucket<T>,
    /// Bucket width in virtual seconds (one calendar "day").
    width: f64,
    len: usize,
    /// The day the pop sweep is currently inspecting.
    cur_day: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Smallest calendar size kept through shrinks.
    const MIN_BUCKETS: usize = 16;

    /// An empty queue with a small initial calendar; the calendar grows,
    /// shrinks, and re-tunes its bucket width as the population changes.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..Self::MIN_BUCKETS).map(|_| Bucket::new()).collect(),
            overflow: Bucket::new(),
            width: 1.0,
            len: 0,
            cur_day: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The day number of `t` at the current width, if exactly
    /// representable.
    fn day_of(&self, t: f64) -> Option<u64> {
        let q = (t / self.width).floor();
        (q < MAX_EXACT_DAY).then_some(q as u64)
    }

    /// Inserts an entry. `seq` must be unique among live entries; equal
    /// times pop in ascending `seq` order.
    pub fn schedule(&mut self, time: SimTime, seq: u64, payload: T) {
        let t = time.as_secs_f64();
        let day = self.day_of(t);
        if let Some(day) = day {
            // Sweep invariant: no live entry's day precedes `cur_day`.
            // Rewind for entries behind the sweep, and align a
            // previously-empty calendar to its first entry so the sweep
            // does not crawl forward from day zero.
            if self.len == 0 || day < self.cur_day {
                self.cur_day = day;
            }
        }
        let nb = self.buckets.len() as u64;
        self.bucket_at(day.map(|d| (d % nb) as usize)).insert(Entry {
            time: t,
            seq,
            day: day.unwrap_or(u64::MAX),
            payload,
        });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Removes the live entry carrying `seq`, if any. Linear in the
    /// population — cancellation is for correctness (stale timeouts,
    /// model-based tests), not for hot paths.
    pub fn cancel(&mut self, seq: u64) -> Option<(SimTime, T)> {
        for b in self
            .buckets
            .iter_mut()
            .chain(std::iter::once(&mut self.overflow))
        {
            if let Some(i) = b.position(seq) {
                let e = b.remove(i);
                self.len -= 1;
                return Some((SimTime::from_secs_f64(e.time), e.payload));
            }
        }
        None
    }

    /// The earliest `(time, seq)` key without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        let loc = self.locate()?;
        let e = self.bucket_at(loc.bucket).get(loc.index);
        Some((SimTime::from_secs_f64(e.time), e.seq))
    }

    /// Removes and returns the earliest entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let loc = self.locate()?;
        let e = self.bucket_at(loc.bucket).remove(loc.index);
        self.len -= 1;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > Self::MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some((SimTime::from_secs_f64(e.time), e.seq, e.payload))
    }

    /// Pops every entry with `time <= limit`, in `(time, seq)` order.
    pub fn drain_until(&mut self, limit: SimTime, out: &mut Vec<(SimTime, u64, T)>) {
        while let Some((t, _)) = self.peek() {
            if t > limit {
                break;
            }
            out.push(self.pop().expect("peek saw an entry"));
        }
    }

    /// Bucket `b`, or the overflow list.
    fn bucket_at(&mut self, b: Option<usize>) -> &mut Bucket<T> {
        match b {
            Some(b) => &mut self.buckets[b],
            None => &mut self.overflow,
        }
    }

    /// Finds the earliest entry, advancing the sweep to its day.
    ///
    /// Sweeps at most one full calendar lap from the current day; a lap
    /// without a hit (entries far in the future, or in the overflow list)
    /// falls back to a direct search over every bucket's earliest entry,
    /// then re-aligns the sweep so neighbours of the found entry are cheap
    /// again.
    fn locate(&mut self) -> Option<Loc> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let mut day = self.cur_day;
        for _ in 0..nb {
            let bi = (day % nb) as usize;
            // A day never contradicts time order, so the bucket's earliest
            // entry is of its earliest day: if that is still to come, so
            // is every other entry here.
            if let Some((index, e)) = self.buckets[bi].earliest() {
                if e.day <= day {
                    self.cur_day = day;
                    return Some(Loc {
                        bucket: Some(bi),
                        index,
                    });
                }
            }
            match day.checked_add(1) {
                Some(d) => day = d,
                None => break,
            }
        }
        // Direct search: the earliest of the buckets' and the overflow
        // list's earliest entries, then re-align the sweep onto its day.
        let mut best: Option<(&Entry<T>, Loc)> = None;
        let all = (self.buckets.iter().enumerate())
            .map(|(b, bucket)| (Some(b), bucket))
            .chain([(None, &self.overflow)]);
        for (bucket, entries) in all {
            if let Some((index, e)) = entries.earliest() {
                if best.is_none_or(|(b, _)| e.key() < b.key()) {
                    best = Some((e, Loc { bucket, index }));
                }
            }
        }
        let (e, loc) = best.expect("len > 0 implies an entry exists");
        if e.day != u64::MAX {
            self.cur_day = e.day;
        }
        Some(loc)
    }

    /// Rebuilds the calendar with `new_buckets` buckets and a width
    /// re-tuned to the live population (mean inter-event gap, padded so a
    /// day holds a handful of events). Deterministic: a pure function of
    /// the queue's contents.
    fn resize(&mut self, new_buckets: usize) {
        let new_buckets = new_buckets.max(Self::MIN_BUCKETS);
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for b in self.buckets.iter_mut().chain([&mut self.overflow]) {
            b.drain_into(&mut entries);
        }
        examined(entries.len());

        if entries.len() >= 2 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &entries {
                lo = lo.min(e.time);
                hi = hi.max(e.time);
            }
            let span = hi - lo;
            if span > 0.0 {
                // ~3 events per day on average keeps bucket scans short
                // without the sweep crossing long runs of empty days.
                self.width = (span / entries.len() as f64 * 3.0).max(1e-18);
            }
        }

        self.buckets = (0..new_buckets).map(|_| Bucket::new()).collect();
        self.cur_day = u64::MAX;
        for e in &mut entries {
            e.day = self.day_of(e.time).unwrap_or(u64::MAX);
            if e.day < self.cur_day {
                self.cur_day = e.day;
            }
        }
        if self.cur_day == u64::MAX {
            self.cur_day = 0;
        }
        // A long bucket arrives in order, so its entries pass through
        // `insert` without a search.
        for e in entries {
            let b = (e.day != u64::MAX).then(|| (e.day % new_buckets as u64) as usize);
            self.bucket_at(b).insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.schedule(t(2.0), 0, "c");
        q.schedule(t(1.0), 1, "a");
        q.schedule(t(1.0), 2, "b");
        q.schedule(t(0.5), 3, "first");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("first"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("c"));
        assert_eq!(q.pop().map(|(_, _, p)| p), None);
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>, s: f64| {
            q.schedule(t(s), seq, seq);
            seq += 1;
        };
        for i in 0..100 {
            push(&mut q, (i * 7 % 13) as f64);
        }
        let mut last = (f64::NEG_INFINITY, 0u64);
        for _ in 0..50 {
            let (time, s, _) = q.pop().unwrap();
            assert!((time.as_secs_f64(), s) > last);
            last = (time.as_secs_f64(), s);
        }
        for i in 0..100 {
            push(&mut q, 20.0 + (i * 11 % 17) as f64);
        }
        let mut prev = last;
        while let Some((time, s, _)) = q.pop() {
            assert!((time.as_secs_f64(), s) > prev, "order violated");
            prev = (time.as_secs_f64(), s);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn survives_growth_and_shrink() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.schedule(t(i as f64 * 1e-3), i, i);
        }
        assert!(q.buckets.len() > CalendarQueue::<u64>::MIN_BUCKETS);
        for i in 0..10_000u64 {
            let (_, s, p) = q.pop().unwrap();
            assert_eq!(s, i);
            assert_eq!(p, i);
        }
        assert_eq!(q.buckets.len(), CalendarQueue::<u64>::MIN_BUCKETS);
    }

    #[test]
    fn far_future_jump_uses_direct_search() {
        let mut q = CalendarQueue::new();
        q.schedule(t(1e-6), 0, "near");
        q.schedule(t(1e12), 1, "far");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("far"));
    }

    #[test]
    fn huge_quotients_use_the_overflow_list() {
        let mut q = CalendarQueue::new();
        // A dense nanosecond cluster tunes the width tiny on resize; the
        // far-out entry's day number then exceeds 2^53 and must take the
        // overflow path while preserving global order.
        for i in 0..100u64 {
            q.schedule(t(1e-9 * i as f64), i, i);
        }
        q.schedule(t(1e9), 100, 100);
        let mut prev: Option<(SimTime, u64)> = None;
        let mut count = 0;
        while let Some((time, s, _)) = q.pop() {
            if let Some(p) = prev {
                assert!((time, s) > p, "order violated at seq {s}");
            }
            prev = Some((time, s));
            count += 1;
        }
        assert_eq!(count, 101);
    }

    #[test]
    fn equal_times_are_fifo_across_resizes() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.schedule(t(5.0), i, i);
        }
        for i in 0..1000u64 {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(i));
        }
    }

    /// Runs `f` and returns how many entries this thread's queues
    /// compared or moved meanwhile.
    fn examined_by(f: impl FnOnce()) -> u64 {
        let before = EXAMINED.with(|c| c.get());
        f();
        EXAMINED.with(|c| c.get()) - before
    }

    #[test]
    fn a_pop_among_ties_does_not_look_at_the_ties() {
        // An SPMD superstep: every rank's wake at one instant, so one
        // bucket holds them all. A bucket scanned per pop examines
        // N²/2 = 1.25e9 entries here.
        const N: u64 = 50_000;
        let bound = 4 * N * u64::from(N.ilog2());
        let cost = examined_by(|| {
            let mut q = CalendarQueue::new();
            for i in 0..N {
                q.schedule(t(5.0), i, i);
            }
            for i in 0..N {
                assert_eq!(q.peek().map(|(_, s)| s), Some(i));
                assert_eq!(q.pop().map(|(_, s, _)| s), Some(i));
            }
        });
        assert!(cost <= bound, "examined {cost} entries, bound {bound}");

        // The same with a straggler per tie scheduled out of order, so
        // that `schedule` has to search, and pops interleaved.
        let cost = examined_by(|| {
            let mut q = CalendarQueue::new();
            for i in 0..N / 2 {
                q.schedule(t(5.0), 2 * i + 1, ());
                q.schedule(t(5.0), 2 * i, ());
                if i % 3 == 0 {
                    q.pop().expect("two were just scheduled");
                }
            }
            let mut last = None;
            while let Some((_, s, ())) = q.pop() {
                assert!(last < Some(s), "order violated at seq {s}");
                last = Some(s);
            }
        });
        assert!(cost <= bound, "examined {cost} entries, bound {bound}");
    }

    #[test]
    fn a_bucket_orders_itself_from_its_thirty_third_entry_on() {
        let mut q = CalendarQueue::new();
        let ordered = |q: &CalendarQueue<u64>| {
            let many = |b: &Bucket<u64>| matches!(b, Bucket::Many(_));
            q.buckets.iter().filter(|b| many(b)).count()
        };
        // One instant — so one bucket, whatever the resizes do — in a
        // scrambled `seq` order (37 and 100 are coprime).
        for i in 0..100u64 {
            let seq = i * 37 % 100;
            q.schedule(t(5.0), seq, seq);
            assert_eq!(ordered(&q), usize::from(i >= Bucket::<u64>::FEW as u64), "at {i}");
        }
        for seq in 0..100u64 {
            assert_eq!(q.pop(), Some((t(5.0), seq, seq)));
            // Still ordered on the way down, as far as a shrinking
            // calendar's rebuilds leave it.
            if q.len() > Bucket::<u64>::FEW {
                assert_eq!(ordered(&q), 1, "after {seq}");
            }
        }
        assert_eq!(ordered(&q), 0, "an empty bucket forgets");
    }

    #[test]
    fn cancel_removes_exactly_one_entry() {
        let mut q = CalendarQueue::new();
        q.schedule(t(1.0), 0, "a");
        q.schedule(t(2.0), 1, "b");
        q.schedule(t(3.0), 2, "c");
        assert!(q.cancel(1).is_some());
        assert!(q.cancel(1).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("c"));
    }

    #[test]
    fn drain_until_is_inclusive_and_ordered() {
        let mut q = CalendarQueue::new();
        for (i, s) in [3.0, 1.0, 2.0, 2.0, 7.0].iter().enumerate() {
            q.schedule(t(*s), i as u64, i);
        }
        let mut out = Vec::new();
        q.drain_until(t(2.0), &mut out);
        let seqs: Vec<u64> = out.iter().map(|(_, s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn past_insert_rewinds_the_sweep() {
        let mut q = CalendarQueue::new();
        q.schedule(t(100.0), 0, "late");
        assert_eq!(q.peek().map(|(time, _)| time), Some(t(100.0)));
        // An entry behind the sweep cursor must still pop first.
        q.schedule(t(1.0), 1, "early");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("early"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("late"));
    }
}
